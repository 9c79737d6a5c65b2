"""Batch-dynamic differential suite: the three-way identity.

For every seeded edit sequence the incremental count must equal the
full recount on the compacted mutated graph, and both must equal the
VF2 golden oracle's recount on the mutated edge list::

    base + Σ delta.net  ==  STMatchEngine(compact()).count  ==  VF2

The randomized matrix covers q1–q13 × {unlabeled, labeled} × seeds
(52 sequences × 2 batches each), plus edge cases (no-op, delete-only,
insert-only, delete+insert of the same edge, raw embedding deltas) and
fixture-pinned cells on the golden corpus, so the incremental path is
checked against ground truth, not just against the engine it reuses.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.dynamic import EditBatch, IncrementalMatcher, OverlayGraph, count_delta
from repro.graph.csr import CSRGraph
from repro.pattern import QUERIES

from tests import oracle
from tests.oracle import ReferenceEngine

QUERY_NAMES = [f"q{i}" for i in range(1, 14)]
SEQUENCE_SEEDS = [0, 1]
BATCHES_PER_SEQUENCE = 2


def _base_graph(seed: int) -> CSRGraph:
    import networkx as nx

    g = nx.powerlaw_cluster_graph(16, 2, 0.3, seed=40 + seed)
    return CSRGraph.from_networkx(g, name=f"dyn{seed}")


def _prepare(qname: str, labeled: bool, seed: int):
    g = _base_graph(seed)
    q = QUERIES[qname]
    if labeled:
        g, q = oracle.labeled_pair(g, q)
    return g, q


class TestRandomizedSequences:
    """52 seeded sequences (13 queries × 2 label modes × 2 seeds), each
    applying BATCHES_PER_SEQUENCE batches through IncrementalMatcher."""

    @pytest.mark.parametrize("seed", SEQUENCE_SEEDS)
    @pytest.mark.parametrize("labeled", [False, True],
                             ids=["unlabeled", "labeled"])
    @pytest.mark.parametrize("qname", QUERY_NAMES)
    def test_three_way_identity(self, qname, labeled, seed):
        g, q = _prepare(qname, labeled, seed)
        matcher = IncrementalMatcher(g, q)
        assert matcher.count == oracle.count_oracle(g, q)
        for step in range(BATCHES_PER_SEQUENCE):
            before = matcher.materialized()
            inserts, deletes = oracle.seeded_edit_batch(
                before, seed=1000 * seed + 10 * step + int(qname[1:]))
            delta = matcher.apply_batch(
                EditBatch.from_lists(inserts=inserts, deletes=deletes))
            recount = matcher.recount()
            golden = oracle.golden_count_after_edits(
                before, q, inserts, deletes)
            assert matcher.count == recount == golden, (
                f"{qname} labeled={labeled} seed={seed} step={step}: "
                f"incremental={matcher.count} recount={recount} "
                f"vf2={golden} (delta {delta})")

    @pytest.mark.parametrize("seed", SEQUENCE_SEEDS)
    @pytest.mark.parametrize("labeled", [False, True],
                             ids=["unlabeled", "labeled"])
    @pytest.mark.parametrize("qname", QUERY_NAMES)
    def test_isomorphic_query_copy_gives_the_same_delta(self, qname, labeled,
                                                        seed):
        # metamorphic: renaming the query's vertices changes which arc
        # represents each Aut(Q)-orbit, never how many orbits there are
        # or what they count
        before, q = _prepare(qname, labeled, seed)
        rng = np.random.default_rng(100 * seed + int(qname[1:]))
        copy = q.relabeled(rng.permutation(q.size).tolist())
        for step in range(BATCHES_PER_SEQUENCE):
            inserts, deletes = oracle.seeded_edit_batch(
                before, seed=1000 * seed + 10 * step + int(qname[1:]))
            batch = EditBatch.from_lists(inserts=inserts, deletes=deletes)
            d, mutated = count_delta(before, q, batch)
            dc, _ = count_delta(before, copy, batch)
            assert (d.added, d.removed, d.anchor_runs, d.anchors_pruned) == \
                (dc.added, dc.removed, dc.anchor_runs, dc.anchors_pruned)
            before = mutated.compact()


class TestEdgeCases:
    def test_noop_batch_is_free(self):
        g, q = _prepare("q1", False, 0)
        existing = next(iter(g.edges()))
        # inserting a present edge / deleting an absent one normalizes away
        batch = EditBatch.from_lists(inserts=[existing], deletes=[(0, 15)])
        assert not g.has_edge(0, 15)
        delta, mutated = count_delta(g, q, batch)
        assert delta.net == 0 and delta.anchor_runs == 0
        assert mutated.num_edges == g.num_edges

    def test_delete_only_and_insert_only(self):
        g, q = _prepare("q3", False, 1)
        dels = list(g.edges())[:3]
        delta, mutated = count_delta(g, q, EditBatch.from_lists(deletes=dels))
        assert delta.added == 0 and delta.num_inserts == 0
        assert STMatchEngine(mutated.compact()).count(q) == \
            STMatchEngine(g).count(q) - delta.removed
        back, restored = count_delta(mutated, q,
                                     EditBatch.from_lists(inserts=dels))
        assert back.removed == 0 and back.num_deletes == 0
        # reinserting the deleted edges restores the original count
        assert delta.net + back.net == 0
        assert STMatchEngine(restored.compact()).count(q) == \
            STMatchEngine(g).count(q)

    def test_delete_then_insert_same_edge_is_noop(self):
        g, q = _prepare("q2", False, 0)
        e = next(iter(g.edges()))
        delta, mutated = count_delta(
            g, q, EditBatch.from_lists(inserts=[e], deletes=[e]))
        assert delta.net == 0 and delta.num_inserts == 0 \
            and delta.num_deletes == 0
        assert mutated.num_edges == g.num_edges

    def test_raw_embedding_deltas(self):
        # symmetry_breaking=False must report embedding (not unique
        # match) deltas: exactly |Aut| times the unique-match delta
        g, q = _prepare("q6", False, 0)
        inserts, deletes = oracle.seeded_edit_batch(g, seed=5)
        batch = EditBatch.from_lists(inserts=inserts, deletes=deletes)
        unique, _ = count_delta(g, q, batch, symmetry_breaking=True)
        raw, _ = count_delta(g, q, batch, symmetry_breaking=False)
        aut = len(q.automorphisms())
        assert raw.added == unique.added * aut
        assert raw.removed == unique.removed * aut

    def test_budgeted_config_rejected(self):
        g, q = _prepare("q1", False, 0)
        with pytest.raises(ValueError, match="max_results"):
            count_delta(g, q, EditBatch.from_lists(inserts=[(0, 9)]),
                        config=EngineConfig(max_results=10))

    def test_single_vertex_query_never_changes(self):
        g = _base_graph(0)
        from repro.pattern.query import QueryGraph

        q = QueryGraph(adj=np.zeros((1, 1), dtype=bool), name="v")
        inserts, deletes = oracle.seeded_edit_batch(g, seed=3)
        delta, _ = count_delta(
            g, q, EditBatch.from_lists(inserts=inserts, deletes=deletes))
        assert delta.net == 0 and delta.anchor_runs == 0

    def test_compaction_threshold_preserves_counts(self):
        g, q = _prepare("q1", False, 0)
        # force a compact after every batch; counts must be unaffected
        matcher = IncrementalMatcher(g, q, compact_threshold=0)
        for step in range(3):
            inserts, deletes = oracle.seeded_edit_batch(
                matcher.materialized(), seed=20 + step)
            matcher.apply_batch(
                EditBatch.from_lists(inserts=inserts, deletes=deletes))
            assert isinstance(matcher.graph, CSRGraph)  # compacted
            assert matcher.count == matcher.recount()


class TestFixturePinned:
    """The incremental path against the checked-in golden corpus: for
    every mutated fixture cell, fixture base count + delta.net must
    equal the fixture's VF2 count of the mutated graph."""

    @pytest.fixture(scope="class")
    def fixture(self):
        return oracle.load_fixture()

    @pytest.fixture(scope="class")
    def graphs(self):
        return oracle.corpus_graphs()

    @pytest.mark.parametrize("mode", ["unlabeled", "labeled"])
    @pytest.mark.parametrize("qname", QUERY_NAMES)
    def test_incremental_matches_golden(self, fixture, graphs, qname, mode):
        q = QUERIES[qname]
        for gname, g in graphs.items():
            if mode == "labeled":
                g, lq = oracle.labeled_pair(g, q)
            else:
                lq = q
            for cell in fixture["mutated"][gname]:
                batch = EditBatch.from_lists(
                    inserts=[tuple(e) for e in cell["inserts"]],
                    deletes=[tuple(e) for e in cell["deletes"]])
                delta, mutated = count_delta(g, lq, batch)
                base = fixture["counts"][gname][mode][qname]
                want = cell["counts"][mode][qname]
                assert base + delta.net == want, (
                    f"{gname}/{qname}/{mode} seed={cell['seed']}: "
                    f"{base} + {delta.net} != {want}")
                # the overlay the delta was computed through agrees too
                assert STMatchEngine(mutated).count(lq) == want


class TestOverlayEngineEquivalence:
    def test_engine_runs_directly_on_overlay(self):
        # the whole point of the read-API contract: counts on the
        # overlay equal counts on the compacted CSR, the per-slot
        # reference included
        g, q = _prepare("q4", True, 0)
        inserts, deletes = oracle.seeded_edit_batch(g, seed=9)
        ov = OverlayGraph.from_edits(
            g, EditBatch.from_lists(inserts=inserts, deletes=deletes))
        compact = ov.compact()
        for engine in (ReferenceEngine, STMatchEngine):
            a = engine(ov).run(q)
            b = engine(compact).run(q)
            assert a.matches == b.matches

    @pytest.mark.parametrize("induced", [False, True],
                             ids=["edge", "vertex-induced"])
    @pytest.mark.parametrize("qname", [f"q{i}" for i in range(1, 25)])
    def test_overlay_equals_compacted_on_both_fast_tiers(self, qname, induced):
        # regression: the count-only leaves once read graph.indptr /
        # graph.indices, which on an overlay are the *base* CSR arrays,
        # so codegen counts (and cycles) on an edited overlay silently
        # diverged.  Half the vertices are touched here, so slot
        # vertices with merged rows reach every leaf; the budget caps
        # the large cells (identical charge order = identical cut).
        import networkx as nx

        g = CSRGraph.from_networkx(
            nx.powerlaw_cluster_graph(24, 4, 0.5, seed=3), name="ov")
        rng = np.random.default_rng(7)
        edges = list(g.edges())
        deletes = [edges[i] for i in rng.choice(len(edges), 12, replace=False)]
        inserts = [(u, v) for u, v in rng.integers(0, 24, (200, 2)).tolist()
                   if u != v and not g.has_edge(u, v)][:12]
        ov = OverlayGraph.from_edits(
            g, EditBatch.from_lists(inserts=inserts, deletes=deletes))
        compact = ov.compact()
        q = QUERIES[qname]
        for codegen in (False, True):
            cfg = EngineConfig(codegen=codegen, max_results=5_000)
            a = STMatchEngine(ov, cfg).run(q, vertex_induced=induced)
            b = STMatchEngine(compact, cfg).run(q, vertex_induced=induced)
            assert (a.matches, a.cycles, a.status) == \
                (b.matches, b.cycles, b.status), (qname, induced, codegen)
