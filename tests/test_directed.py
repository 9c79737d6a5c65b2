"""Tests for directed-query matching (the cuTS query style).

The paper: "our system supports both directed and undirected graphs"
(Sec. VIII-A).  Directed matching is edge-induced; every engine must
agree with the reference oracle and with networkx's DiGraphMatcher.
"""

import numpy as np
import pytest

from repro import STMatchEngine, QueryGraph
from repro.baselines import CuTSEngine, DryadicEngine, count_matches_recursive
from repro.graph import CSRGraph
from repro.pattern import build_plan


def directed_graph(n=40, p=0.15, seed=3) -> CSRGraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    arcs = np.argwhere(mask)
    return CSRGraph.from_edges(n, arcs, directed=True)


def count_via_networkx_directed(graph: CSRGraph, query: QueryGraph) -> int:
    import networkx as nx
    from networkx.algorithms.isomorphism import DiGraphMatcher

    gm = DiGraphMatcher(graph.to_networkx(), query.to_networkx())
    embeddings = sum(1 for _ in gm.subgraph_monomorphisms_iter())
    n_aut = len(query.automorphisms())
    assert embeddings % n_aut == 0
    return embeddings // n_aut


DIRECTED_QUERIES = [
    QueryGraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)], name="cycle3d"),
    QueryGraph.from_arcs(3, [(0, 1), (0, 2)], name="outstar3"),
    QueryGraph.from_arcs(3, [(1, 0), (2, 0)], name="instar3"),
    QueryGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="cycle4d"),
    QueryGraph.from_arcs(4, [(0, 1), (1, 2), (0, 2), (2, 3)], name="tri_tail_d"),
    QueryGraph.from_arcs(3, [(0, 1), (1, 0), (1, 2)], name="mutual_tail"),
]


class TestDirectedQueryGraph:
    def test_from_arcs(self):
        q = QueryGraph.from_arcs(3, [(0, 1), (1, 2)])
        assert q.directed
        assert q.adj[0, 1] and not q.adj[1, 0]

    def test_asymmetric_undirected_rejected(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 1] = True
        with pytest.raises(ValueError):
            QueryGraph(adj=adj, directed=False)

    def test_directed_cycle_automorphisms(self):
        q = QueryGraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        # rotations only (no reflections): |Aut| = 4
        assert len(q.automorphisms()) == 4

    def test_direction_matters_for_equality(self):
        a = QueryGraph.from_arcs(2, [(0, 1)])
        b = QueryGraph.from_arcs(2, [(1, 0)])
        assert a != b

    def test_connects_both_ways(self):
        q = QueryGraph.from_arcs(2, [(0, 1)])
        assert q.connects(0, 1) and q.connects(1, 0)


class TestReversedView:
    def test_in_neighbors(self):
        g = CSRGraph.from_edges(3, [(0, 1), (2, 1)], directed=True)
        assert list(g.in_neighbors(1)) == [0, 2]
        assert g.in_neighbors(0).size == 0

    def test_reversed_cached(self):
        g = directed_graph()
        assert g.reversed_view() is g.reversed_view()

    def test_undirected_reversed_is_self(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        assert g.reversed_view() is g
        assert list(g.in_neighbors(1)) == list(g.neighbors(1))

    def test_reversed_view_drops_self_loops(self):
        # pinned: the count-only leaf_flipped corrects its r = v term for
        # exactly this (LevelOps.self_loops on both views)
        indptr = np.array([0, 2, 3, 3], dtype=np.int64)
        g = CSRGraph(indptr=indptr, indices=np.array([0, 1, 1], dtype=np.int32),
                     directed=True)  # arcs 0→0, 0→1, 1→1
        assert list(g.neighbors(0)) == [0, 1] and list(g.neighbors(1)) == [1]
        assert list(g.in_neighbors(0)) == []
        assert list(g.in_neighbors(1)) == [0]
        assert g.reversed_view().num_edges == 1

    def test_reverse_roundtrip(self):
        g = directed_graph(25, 0.2, seed=8)
        rr = g.reversed_view().reversed_view()
        assert np.array_equal(rr.indptr, g.indptr)
        assert np.array_equal(rr.indices, g.indices)


class TestDirectedCounting:
    @pytest.fixture(scope="class")
    def g(self):
        return directed_graph()

    @pytest.mark.parametrize("q", DIRECTED_QUERIES, ids=lambda q: q.name)
    def test_oracle_matches_networkx(self, g, q):
        plan = build_plan(q, g)
        assert count_matches_recursive(g, plan) == count_via_networkx_directed(g, q)

    @pytest.mark.parametrize("q", DIRECTED_QUERIES, ids=lambda q: q.name)
    def test_stmatch_matches_oracle(self, g, q):
        eng = STMatchEngine(g)
        plan = eng.plan(q)
        assert eng.run(plan).matches == count_matches_recursive(g, plan)

    @pytest.mark.parametrize("q", DIRECTED_QUERIES[:4], ids=lambda q: q.name)
    def test_dryadic_and_cuts_agree(self, g, q):
        st = STMatchEngine(g).run(q)
        dr = DryadicEngine(g).run(q)
        assert st.matches == dr.matches
        cu = CuTSEngine(g).run(q)
        if cu.ok:
            assert cu.matches == st.matches

    def test_no_code_motion_agrees(self, g):
        from repro import EngineConfig

        q = DIRECTED_QUERIES[0]
        a = STMatchEngine(g, EngineConfig(code_motion=True)).run(q).matches
        b = STMatchEngine(g, EngineConfig(code_motion=False)).run(q).matches
        assert a == b

    def test_mutual_arc_needs_both_directions(self):
        # graph with only one direction cannot contain a mutual pair
        g1 = CSRGraph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        q = QueryGraph.from_arcs(2, [(0, 1), (1, 0)])
        assert STMatchEngine(g1).run(q).matches == 0
        g2 = CSRGraph.from_edges(2, [(0, 1)], directed=True)
        # add the reverse arc
        g3 = CSRGraph.from_edges(2, np.array([[0, 1], [1, 0]]), directed=True)
        assert STMatchEngine(g3).run(q).matches == 1


class TestDirectedRestrictionsAndErrors:
    def test_vertex_induced_rejected(self):
        g = directed_graph()
        with pytest.raises(NotImplementedError):
            build_plan(DIRECTED_QUERIES[0], g, vertex_induced=True)

    def test_directed_query_on_undirected_graph_rejected(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2)])
        with pytest.raises(ValueError):
            build_plan(DIRECTED_QUERIES[0], g)

    def test_compact_encoding_rejects_directed(self):
        g = directed_graph()
        plan = build_plan(DIRECTED_QUERIES[0], g)
        with pytest.raises(ValueError):
            plan.program.to_compact()

    def test_symmetry_identity_directed(self):
        g = directed_graph()
        q = DIRECTED_QUERIES[3]  # directed 4-cycle, |Aut| = 4
        sub_plan = build_plan(q, g, symmetry_breaking=True)
        emb_plan = build_plan(q, g, symmetry_breaking=False)
        sub = count_matches_recursive(g, sub_plan)
        emb = count_matches_recursive(g, emb_plan)
        assert emb == 4 * sub
