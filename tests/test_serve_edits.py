"""Service-level batch edits: versioned invalidation + cache patching.

Covers the PR's serve-layer contract: ``ResultCache.invalidate_graph``
takes a version (entries of *other* versions survive),
``MatchService.apply_edits`` bumps the version and carries patched
exact counts forward instead of dropping the cache wholesale, and
pinned ``frontier_count`` runs (the anchoring primitive underneath it
all) equal a pinned VF2 count and partition the total count.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.core.frontier import frontier_count
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_cluster
from repro.pattern import QUERIES, build_plan
from repro.pattern.symmetry import arc_orbits
from repro.serve import MatchRequest, MatchService, ResultCache

from tests.oracle import ReferenceEngine, count_pinned_monomorphisms


def _graph(seed: int = 1, n: int = 24) -> CSRGraph:
    return powerlaw_cluster(n, 3, 0.5, seed=seed)


class TestVersionedInvalidation:
    def _seeded_cache(self) -> ResultCache:
        cache = ResultCache()
        cfg = EngineConfig()
        for version in (1, 2, 3):
            key = ResultCache.key("g", version, QUERIES["q1"], False, cfg)
            cache.put(key, 100 + version)
        return cache

    def test_targeted_version_leaves_others_alone(self):
        # the satellite's headline: version-N entries survive when only
        # version N+1 is invalidated
        cache = self._seeded_cache()
        cfg = EngineConfig()
        dropped = cache.invalidate_graph("g", version=2)
        assert dropped == 1
        k1 = ResultCache.key("g", 1, QUERIES["q1"], False, cfg)
        k2 = ResultCache.key("g", 2, QUERIES["q1"], False, cfg)
        k3 = ResultCache.key("g", 3, QUERIES["q1"], False, cfg)
        assert cache.get(k1) == 101
        assert cache.get(k2) is None
        assert cache.get(k3) == 103

    def test_no_version_still_drops_everything(self):
        cache = self._seeded_cache()
        assert cache.invalidate_graph("g") == 3
        assert len(cache) == 0

    def test_entries_snapshot_is_per_version(self):
        cache = self._seeded_cache()
        entries = cache.entries("g", 2)
        assert len(entries) == 1
        (key, count), = entries
        assert key[1] == 2 and count == 102
        # snapshotting is not an access: no hit/miss accounting drift
        assert cache.stats()["hits"] == 0


class TestApplyEdits:
    def test_patches_cached_counts_forward(self):
        g = _graph()
        svc = MatchService({"g": g})
        q1, q4 = QUERIES["q1"], QUERIES["q4"]
        svc.match(MatchRequest(graph="g", query=q1))
        svc.match(MatchRequest(graph="g", query=q4))
        deletes = [sorted(next(iter(g.edges())))]
        report = svc.apply_edits("g", inserts=[(0, 9), (2, 17)],
                                 deletes=deletes)
        assert report.new_version == report.old_version + 1
        assert report.entries_patched == 2
        # unlabeled, so nothing is pruned: one launch per effective
        # edge and arc orbit (q1: 8 arcs in 4 orbits, q4: 10 in 6)
        assert report.anchor_runs == (
            (report.num_inserts + report.num_deletes)
            * sum(len(arc_orbits(q)) for q in (q1, q4)))
        for q in (q1, q4):
            resp = svc.match(MatchRequest(graph="g", query=q))
            assert resp.served_from == "cache"
            assert resp.graph_version == report.new_version
            fresh = svc._hosts["g"].snapshot()[0]
            assert resp.matches == STMatchEngine(fresh).count(q)

    def test_noop_batch_keeps_version_and_cache(self):
        g = _graph()
        svc = MatchService({"g": g})
        q1 = QUERIES["q1"]
        svc.match(MatchRequest(graph="g", query=q1))
        existing = sorted(next(iter(g.edges())))
        report = svc.apply_edits("g", inserts=[existing])
        assert report.new_version == report.old_version
        assert report.entries_patched == 0 and report.entries_invalidated == 0
        assert svc.match(MatchRequest(graph="g", query=q1)
                         ).served_from == "cache"

    def test_vertex_induced_entries_are_dropped_not_patched(self):
        g = _graph()
        svc = MatchService({"g": g})
        q1 = QUERIES["q1"]
        svc.match(MatchRequest(graph="g", query=q1, vertex_induced=True))
        report = svc.apply_edits("g", deletes=[sorted(next(iter(g.edges())))])
        assert report.entries_patched == 0
        assert report.entries_invalidated == 1
        # recomputed on demand, correct against a fresh engine
        resp = svc.match(MatchRequest(graph="g", query=q1,
                                      vertex_induced=True))
        assert resp.served_from == "engine"
        fresh = svc._hosts["g"].snapshot()[0]
        assert resp.matches == STMatchEngine(fresh).count(
            q1, vertex_induced=True)

    def test_sequential_batches_accumulate_exactly(self):
        g = _graph(seed=5)
        svc = MatchService({"g": g})
        q3 = QUERIES["q3"]
        svc.match(MatchRequest(graph="g", query=q3))
        rng = np.random.default_rng(13)
        for step in range(3):
            current = svc._hosts["g"].snapshot()[0]
            existing = sorted(tuple(sorted(e)) for e in current.edges())
            dels = [existing[int(rng.integers(0, len(existing)))]]
            ins = []
            while len(ins) < 1:
                u, v = sorted(int(x) for x in rng.integers(0, 24, 2))
                if u != v and not current.has_edge(u, v):
                    ins.append((u, v))
            report = svc.apply_edits("g", inserts=ins, deletes=dels)
            resp = svc.match(MatchRequest(graph="g", query=q3))
            fresh = svc._hosts["g"].snapshot()[0]
            assert resp.matches == STMatchEngine(fresh).count(q3), (
                f"step {step}: {report}")
            assert resp.served_from == "cache"

    def test_update_graph_only_drops_old_version(self):
        g = _graph()
        svc = MatchService({"g": g})
        q1 = QUERIES["q1"]
        svc.match(MatchRequest(graph="g", query=q1))
        # seed an entry under a *future* version by hand: update_graph
        # must not touch it (only the superseded version is purged)
        future_key = ResultCache.key("g", 2, q1, False, svc.config)
        svc._cache.put(future_key, 4242)
        svc.update_graph("g", _graph(seed=9))
        assert svc._cache.get(future_key) == 4242
        resp = svc.match(MatchRequest(graph="g", query=q1))
        assert resp.served_from == "cache" and resp.matches == 4242


class TestPinnedRuns:
    """The anchoring primitive: pinned levels restrict exactly as VF2
    does, and pinned root counts partition each backend's total."""

    def test_pins_partition_the_count(self):
        g = _graph(seed=2, n=18)
        q = QUERIES["q1"]
        eng = STMatchEngine(g)
        plan = eng.plan(q)
        parts = [frontier_count(g, plan, {0: v}) for v in range(g.num_vertices)]
        assert sum(parts) == eng.run(plan).matches > 0

    @pytest.mark.parametrize("engine_cls", [ReferenceEngine, STMatchEngine],
                             ids=["reference", "fastpath"])
    def test_backends_agree_under_pins(self, engine_cls):
        # pinned frontier counts equal pinned VF2, and the root-pinned
        # counts partition the total of both the per-slot reference and
        # the production walk ("fastpath" keeps the historical id)
        g = _graph(seed=2, n=18)
        q = QUERIES["q4"]
        plan = build_plan(q, symmetry_breaking=False)
        for pins in ({0: 3}, {1: 5}, {0: 3, 1: 5}, {2: 0}):
            assert frontier_count(g, plan, pins) == \
                count_pinned_monomorphisms(g, q, plan.order, pins), pins
        parts = [frontier_count(g, plan, {0: v}) for v in range(g.num_vertices)]
        assert sum(parts) == engine_cls(g).run(plan).matches > 0
