"""Result-cache correctness (repro.serve.cache).

The headline property: across randomized interleavings of concurrent
match requests and graph replacements (fixed seed), the service can
**provably never serve a stale count** — every countable response's
``matches`` equals the golden count for the ``graph_version`` the
response names.  Version-keyed cache entries make staleness structural
rather than probabilistic, and the property test hammers exactly the
window where it could break (requests racing ``update_graph``).
"""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.pattern import QUERIES
from repro.serve import MatchRequest, MatchService, ResponseStatus, ResultCache
from repro.serve.cache import RESULT_CACHE_MAX

from tests import oracle

QNAMES = ("q1", "q2")


@pytest.fixture(scope="module")
def graphs():
    return oracle.corpus_graphs()


class TestResultCacheUnit:
    def test_key_includes_version_and_semantics(self):
        cfg = EngineConfig()
        k1 = ResultCache.key("g", 1, QUERIES["q1"], False, cfg)
        k2 = ResultCache.key("g", 2, QUERIES["q1"], False, cfg)
        k3 = ResultCache.key("g", 1, QUERIES["q1"], True, cfg)
        assert len({k1, k2, k3}) == 3

    def test_key_ignores_identity_preserving_config(self):
        base = EngineConfig()
        variants = [
            base.with_(executor="process", num_workers=4),
            base.with_(codegen=True),
        ]
        k = ResultCache.key("g", 1, QUERIES["q1"], False, base)
        for v in variants:
            assert ResultCache.key("g", 1, QUERIES["q1"], False, v) == k

    def test_key_differs_on_count_affecting_config(self):
        base = EngineConfig()
        k = ResultCache.key("g", 1, QUERIES["q1"], False, base)
        kb = ResultCache.key("g", 1, QUERIES["q1"], False,
                             base.with_(max_results=10))
        assert k != kb

    def test_invalidate_graph_drops_only_that_graph(self):
        cache = ResultCache()
        cfg = EngineConfig()
        cache.put(ResultCache.key("a", 1, QUERIES["q1"], False, cfg), 10)
        cache.put(ResultCache.key("a", 2, QUERIES["q2"], False, cfg), 20)
        cache.put(ResultCache.key("b", 1, QUERIES["q1"], False, cfg), 30)
        assert cache.invalidate_graph("a") == 2
        assert len(cache) == 1
        assert cache.get(
            ResultCache.key("b", 1, QUERIES["q1"], False, cfg)) == 30

    def test_default_capacity(self):
        assert ResultCache().stats()["capacity"] == RESULT_CACHE_MAX


class TestStalenessProperty:
    """Randomized interleavings of requests and graph updates."""

    def test_never_serves_a_stale_count(self, graphs):
        seed = 1234
        rng = random.Random(seed)
        # versions cycle sparse -> dense -> sparse -> ...: golden counts
        # per (version, query) are known up front
        version_graph = {v: ("sparse" if v % 2 else "dense")
                         for v in range(1, 8)}
        golden = {}
        for v, gname in version_graph.items():
            eng = STMatchEngine(graphs[gname], EngineConfig())
            for qn in QNAMES:
                golden[(v, qn)] = eng.run(QUERIES[qn]).matches

        svc = MatchService({"g": graphs[version_graph[1]]}, EngineConfig(),
                           queue_depth=16)
        responses = []
        resp_lock = threading.Lock()

        def client(cseed: int) -> None:
            crng = random.Random(f"{seed}:{cseed}")
            for _ in range(15):
                qn = crng.choice(QNAMES)
                kwargs = {}
                if crng.random() < 0.3:
                    kwargs["idempotency_key"] = f"c{cseed}-{qn}-{crng.randrange(3)}"
                r = svc.match(MatchRequest(graph="g", query=QUERIES[qn],
                                           **kwargs))
                with resp_lock:
                    responses.append((qn, r))

        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        # interleave 5 graph replacements at randomized (seeded) points
        # while the clients are mid-flight
        for v in range(2, 7):
            threading.Event().wait(rng.uniform(0.005, 0.02))
            svc.update_graph("g", graphs[version_graph[v]])
        for t in threads:
            t.join()

        assert len(responses) == 60
        stale = [
            (qn, r.graph_version, r.matches, golden[(r.graph_version, qn)])
            for qn, r in responses
            if r.countable and r.matches != golden[(r.graph_version, qn)]
        ]
        assert not stale, f"stale counts served: {stale[:5]}"
        # every response was terminal and explicit
        for _, r in responses:
            assert r.status in ResponseStatus.ALL
            if r.status != ResponseStatus.OK:
                assert r.detail

    def test_replays_survive_updates_with_their_own_version(self, graphs):
        # a replayed response after an update still names the version it
        # was computed on — it is honest, not stale
        svc = MatchService({"g": graphs["sparse"]}, EngineConfig())
        a = svc.match(MatchRequest(graph="g", query=QUERIES["q1"],
                                   idempotency_key="k"))
        svc.update_graph("g", graphs["dense"])
        b = svc.match(MatchRequest(graph="g", query=QUERIES["q1"],
                                   idempotency_key="k"))
        assert b.served_from == "idempotency"
        assert b.graph_version == 1 == a.graph_version
        assert b.matches == a.matches
        # a fresh key sees the new version
        c = svc.match(MatchRequest(graph="g", query=QUERIES["q1"]))
        assert c.graph_version == 2
