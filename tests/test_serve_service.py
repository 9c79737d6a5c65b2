"""MatchService request lifecycle (repro.serve.service).

Serial-backend tests of the tentpole contracts: explicit admission
control (never a silent drop), per-tenant limits, deadline handling,
idempotent retries (exactly-once counting, X511), the degradation
ladder, budget truncation marked non-exact, versioned graph hosting,
and response accounting under the closed-loop load generator.
Pool/chaos behavior lives in test_serve_chaos.py.
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.analysis.races import ProtocolLog
from repro.analysis.races.hb import check_protocol
from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.pattern import QUERIES
from repro.serve import (
    MatchRequest,
    MatchResponse,
    MatchService,
    ResponseStatus,
    RetryPolicy,
    TenantPolicy,
    run_load,
)

from tests import oracle


@pytest.fixture(scope="module")
def graphs():
    return oracle.corpus_graphs()


@pytest.fixture(scope="module")
def golden(graphs):
    out = {}
    for name in ("sparse", "dense"):
        eng = STMatchEngine(graphs[name], EngineConfig())
        for qn in ("q1", "q2"):
            out[(name, qn)] = eng.run(QUERIES[qn]).matches
    return out


def make_service(graphs, **kwargs):
    cfg = kwargs.pop("config", EngineConfig())
    return MatchService({"sparse": graphs["sparse"]}, cfg, **kwargs)


class TestContractValidation:
    def test_request_rejects_bad_deadline_and_budget(self):
        q = QUERIES["q1"]
        with pytest.raises(ValueError):
            MatchRequest(graph="g", query=q, deadline_s=0.0)
        with pytest.raises(ValueError):
            MatchRequest(graph="g", query=q, budget=0)
        with pytest.raises(ValueError):
            MatchRequest(graph="", query=q)

    def test_response_rejects_partial_count_on_non_ok(self):
        with pytest.raises(ValueError):
            MatchResponse(request_id="r1", tenant="t", graph="g",
                          graph_version=1,
                          status=ResponseStatus.REJECTED_OVERLOAD,
                          matches=5, detail="shed")

    def test_response_requires_detail_when_degraded_or_failed(self):
        with pytest.raises(ValueError):
            MatchResponse(request_id="r1", tenant="t", graph="g",
                          graph_version=1, status=ResponseStatus.OK,
                          degraded=True, detail="")
        with pytest.raises(ValueError):
            MatchResponse(request_id="r1", tenant="t", graph="g",
                          graph_version=1, status=ResponseStatus.FAILED,
                          detail="")

    def test_only_ok_can_be_exact(self):
        with pytest.raises(ValueError):
            MatchResponse(request_id="r1", tenant="t", graph="g",
                          graph_version=1,
                          status=ResponseStatus.DEADLINE_EXCEEDED,
                          exact=True, detail="late")

    def test_retry_policy_backoff_is_capped_exponential(self):
        rp = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.5, jitter=False)
        assert rp.backoff_s(0) == pytest.approx(0.1)
        assert rp.backoff_s(1) == pytest.approx(0.2)
        assert rp.backoff_s(10) == pytest.approx(0.5)
        jittered = RetryPolicy(base_backoff_s=0.1, max_backoff_s=0.5)
        assert jittered.backoff_s(0, jitter_u=0.0) == pytest.approx(0.05)
        assert jittered.backoff_s(0, jitter_u=1.0) == pytest.approx(0.1)


class TestServeBasics:
    def test_serves_exact_count(self, graphs, golden):
        svc = make_service(graphs)
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        assert r.status == ResponseStatus.OK
        assert r.countable
        assert r.matches == golden[("sparse", "q1")]
        assert r.graph_version == 1
        assert r.served_from == "engine"

    def test_unknown_graph_raises(self, graphs):
        svc = make_service(graphs)
        with pytest.raises(KeyError):
            svc.match(MatchRequest(graph="nope", query=QUERIES["q1"]))

    def test_second_request_served_from_cache(self, graphs, golden):
        svc = make_service(graphs)
        a = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        b = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        assert a.served_from == "engine" and b.served_from == "cache"
        assert b.matches == a.matches and b.countable

    def test_budget_truncation_is_ok_but_not_exact(self, graphs, golden):
        svc = make_service(graphs)
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   budget=10))
        assert r.status == ResponseStatus.OK
        assert not r.exact and not r.countable
        # the engine stops at batch granularity, so the truncated count
        # may overshoot the budget slightly but never reaches the total
        assert r.matches < golden[("sparse", "q1")]
        assert "budget" in r.detail
        # a truncated count must never be cached as exact
        full = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        assert full.countable and full.matches == golden[("sparse", "q1")]

    def test_stats_shape(self, graphs):
        svc = make_service(graphs)
        svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        s = svc.stats()
        assert s["requests"]["total"] == 1 and s["requests"]["ok"] == 1
        assert "results" in s["caches"] and "engine:sparse" in s["caches"]
        assert set(s["breaker"]) >= {"state", "transitions"}
        assert "live_pools" in s["pool"]


class TestAdmission:
    def test_overload_is_an_explicit_rejection(self, graphs):
        # deterministic: exhaust the admission semaphore (the queue is
        # full), then require an explicit REJECTED_OVERLOAD
        svc = make_service(graphs, queue_depth=1)
        assert svc._slots.acquire(blocking=False)  # noqa: SLF001
        try:
            r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        finally:
            svc._slots.release()  # noqa: SLF001
        assert r.status == ResponseStatus.REJECTED_OVERLOAD
        assert r.shed and r.matches == 0 and r.detail

    def test_tenant_concurrency_limit(self, graphs):
        svc = make_service(
            graphs, tenants={"t": TenantPolicy(max_concurrency=1)})
        # simulate one in-flight request of the tenant
        with svc._state_lock:  # noqa: SLF001 - deterministic white-box
            svc._tenant_inflight["t"] = 1
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   tenant="t"))
        assert r.status == ResponseStatus.REJECTED_TENANT
        assert "concurrency" in r.detail

    def test_tenant_cycle_quota_exhausts(self, graphs):
        svc = make_service(graphs,
                           tenants={"t": TenantPolicy(cycle_quota=1.0)})
        a = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   tenant="t"))
        assert a.status == ResponseStatus.OK
        b = svc.match(MatchRequest(graph="sparse", query=QUERIES["q2"],
                                   tenant="t"))
        assert b.status == ResponseStatus.REJECTED_TENANT
        assert "quota" in b.detail
        assert svc.tenant_usage("t")["cycles"] > 0

    def test_tenant_budget_clamps_requests(self, graphs, golden):
        svc = make_service(graphs, tenants={"t": TenantPolicy(budget=10)})
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   tenant="t"))
        assert r.status == ResponseStatus.OK and not r.exact
        assert r.run_status == "budget"
        assert r.matches < golden[("sparse", "q1")]

    def test_expired_deadline_is_explicit(self, graphs):
        svc = make_service(graphs)
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   deadline_s=1e-9))
        assert r.status == ResponseStatus.DEADLINE_EXCEEDED
        assert r.detail and r.matches == 0


class TestIdempotency:
    def test_replay_serves_without_reexecution(self, graphs, golden):
        log = ProtocolLog()
        svc = make_service(graphs, protocol_log=log)
        a = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   idempotency_key="k"))
        b = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   idempotency_key="k"))
        assert a.served_from == "engine"
        assert b.served_from == "idempotency"
        assert b.matches == a.matches == golden[("sparse", "q1")]
        assert b.request_id != a.request_id
        kinds = [e.kind for e in log.events]
        assert kinds.count("request_commit") == 1
        assert kinds.count("request_replay") == 1
        assert not check_protocol(log.events).diagnostics

    def test_concurrent_same_key_executes_once(self, graphs, golden):
        log = ProtocolLog()
        svc = make_service(graphs, protocol_log=log)
        results = []
        lock = threading.Lock()

        def worker():
            r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                       idempotency_key="dup"))
            with lock:
                results.append(r)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 4
        assert all(r.matches == golden[("sparse", "q1")] for r in results)
        engine_runs = [r for r in results if r.served_from == "engine"]
        assert len(engine_runs) == 1  # exactly-once execution
        assert not check_protocol(log.events).diagnostics

    def test_window_eviction_forgets_the_key(self, graphs):
        log = ProtocolLog()
        svc = make_service(graphs, protocol_log=log, idempotency_window=1)
        svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                               idempotency_key="k1"))
        svc.match(MatchRequest(graph="sparse", query=QUERIES["q2"],
                               idempotency_key="k2"))  # evicts k1
        # k1 is a stranger again: re-executes (cache hit) without X506/X511
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"],
                                   idempotency_key="k1"))
        assert r.status == ResponseStatus.OK
        kinds = [e.kind for e in log.events]
        assert "ledger_forget" in kinds
        assert not check_protocol(log.events).diagnostics


class TestDegradationLadder:
    def test_pressure_degrades_to_interpreted(self, graphs, golden):
        svc = make_service(graphs, pressure_threshold=0)
        r = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        assert r.status == ResponseStatus.OK
        assert r.degraded and r.degrade_level == 1
        assert "pressure" in r.detail
        # degraded, but the count is still exact — the ladder preserves
        # identity, it only changes the execution strategy
        assert r.countable and r.matches == golden[("sparse", "q1")]


class TestGraphHosting:
    def test_update_bumps_version_and_invalidates(self, graphs, golden):
        svc = make_service(graphs)
        a = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        assert svc.update_graph("sparse", graphs["dense"]) == 2
        b = svc.match(MatchRequest(graph="sparse", query=QUERIES["q1"]))
        assert a.graph_version == 1 and b.graph_version == 2
        assert b.served_from == "engine"  # the v1 entry must not serve
        assert a.matches == golden[("sparse", "q1")]
        assert b.matches == golden[("dense", "q1")]

    def test_update_unknown_graph_raises(self, graphs):
        svc = make_service(graphs)
        with pytest.raises(KeyError):
            svc.update_graph("nope", graphs["dense"])


class TestClosedLoopLoad:
    """``run_load`` against a small queue, a metered tenant and a graph
    swap mid-run: whatever gets shed or degraded, every response is
    accounted for and every countable one is exact for its version."""

    CLIENTS = 4
    NUM_REQUESTS = 24

    def seeded_requests(self):
        rng = random.Random(0)
        requests, qnames = [], []
        for _ in range(self.NUM_REQUESTS):
            qn = rng.choice(("q1", "q2"))
            kwargs = {}
            draw = rng.random()
            if draw < 0.25:
                # a key names one logical request, so it pins its query
                kwargs["idempotency_key"] = f"key-{qn}-{rng.randrange(2)}"
            elif draw < 0.40:
                kwargs["budget"] = 50
            elif draw < 0.50:
                kwargs["tenant"] = "metered"
            requests.append(MatchRequest(graph="sparse", query=QUERIES[qn],
                                         **kwargs))
            qnames.append(qn)
        return requests, qnames

    def test_accounting_under_load_and_graph_swap(self, graphs, golden):
        svc = make_service(
            graphs, queue_depth=2, pressure_threshold=2,
            tenants={"metered": TenantPolicy(max_concurrency=1)})
        requests, qnames = self.seeded_requests()
        by_pos = {}
        lock = threading.Lock()

        def on_response(pos, resp):
            with lock:
                by_pos[pos] = resp
                swap = len(by_pos) == self.NUM_REQUESTS // 2
            if swap:
                assert svc.update_graph("sparse", graphs["dense"]) == 2

        responses, wall_s = run_load(svc, requests, self.CLIENTS,
                                     on_response=on_response)
        assert wall_s > 0
        assert len(responses) == self.NUM_REQUESTS
        # request order, not completion order
        assert all(responses[i] is by_pos[i] for i in range(len(responses)))
        assert [r.tenant for r in responses] == [q.tenant for q in requests]

        graph_of_version = {1: "sparse", 2: "dense"}
        assert any(r.countable for r in responses)
        assert any(r.graph_version == 2 for r in responses)
        for resp, qn in zip(responses, qnames):
            if resp.countable:
                assert resp.matches == golden[(graph_of_version[resp.graph_version], qn)]
            if resp.status != ResponseStatus.OK:
                assert resp.matches == 0 and resp.detail
            if resp.degraded:
                assert resp.detail

    def test_raising_client_reraises(self, graphs):
        svc = make_service(graphs)
        requests = [MatchRequest(graph="sparse", query=QUERIES["q1"]),
                    MatchRequest(graph="nope", query=QUERIES["q1"])]
        with pytest.raises(KeyError):
            run_load(svc, requests, 2)
