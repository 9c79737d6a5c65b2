"""The simulator-free frontier counter (``repro.core.frontier``).

``frontier_count`` is what ``count_delta``'s anchored runs and
``MatchService``'s exact answers execute, so it is held to the same
ground truth as the engine: the checked-in VF2/|Aut| golden counts,
``STMatchEngine.count`` over q1–q24 × {unlabeled, labeled} ×
{edge, vertex-induced} on both corpus graphs, overlays against their
compaction, pinned runs against a pinned backtracking count (itself
checked against VF2), and self-loop graphs.  The golden cells run on
the heap graph and on its memory-mapped twin.
Forcing the element budget down must not move a count, and no gather
may exceed the budget unless it is a single row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import STMatchEngine
from repro.core import frontier
from repro.core.frontier import frontier_count
from repro.dynamic import EditBatch, OverlayGraph
from repro.graph.csr import CSRGraph
from repro.graph.generators import powerlaw_cluster
from repro.graph.labels import assign_random_labels
from repro.pattern import QueryGraph, build_plan, get_query
from repro.scale import memmap_twin

from tests import oracle
from tests.test_anchor_orbits import BIJECTION_CASES, _anchored_plan

QUERY_NAMES = [f"q{i}" for i in range(1, 25)]


#: where a cell's graph arrays live: the heap, or an on-disk store's pages
RESIDENCY = {"heap": lambda g: g, "memmap": memmap_twin}


@pytest.fixture(scope="module")
def corpus():
    return oracle.corpus_graphs()


def _pair(graph: CSRGraph, qname: str, labeled: bool) -> tuple[CSRGraph, QueryGraph]:
    q = get_query(qname)
    if not labeled:
        return graph, q
    return oracle.labeled_pair(graph, q)


def _count(graph, query, vertex_induced=False) -> int:
    return frontier_count(graph, build_plan(query, data_graph=graph,
                                            vertex_induced=vertex_induced))


@pytest.mark.parametrize("gname", ["dense", "sparse"])
@pytest.mark.parametrize("mode", ["unlabeled", "labeled"])
def test_equals_golden_counts(corpus, gname, mode):
    golden = oracle.load_fixture()["counts"][gname][mode]
    for qname in oracle.ORACLE_QUERIES:
        g, q = _pair(corpus[gname], qname, mode == "labeled")
        for residency, home in RESIDENCY.items():
            assert _count(home(g), q) == golden[qname], (gname, mode, qname, residency)


@pytest.mark.parametrize("gname", ["dense", "sparse"])
@pytest.mark.parametrize("qname", QUERY_NAMES)
def test_equals_engine_count(corpus, gname, qname):
    for labeled in (False, True):
        g, q = _pair(corpus[gname], qname, labeled)
        engine = STMatchEngine(g)
        for vi in (False, True):
            assert _count(g, q, vi) == engine.count(q, vertex_induced=vi), (labeled, vi)


@pytest.mark.parametrize("gname", ["dense", "sparse"])
def test_overlay_counts_like_its_compaction(corpus, gname):
    g = corpus[gname]
    for seed in oracle.MUTATION_SEEDS:
        inserts, deletes = oracle.seeded_edit_batch(g, seed, num_deletes=4, num_inserts=4)
        ov = OverlayGraph.from_edits(g, EditBatch.from_lists(inserts=inserts, deletes=deletes))
        flat = ov.compact()
        for qname in oracle.ORACLE_QUERIES:
            q = get_query(qname)
            for vi in (False, True):
                assert _count(ov, q, vi) == _count(flat, q, vi), (seed, qname, vi)


@pytest.mark.parametrize("q", BIJECTION_CASES)
def test_pinned_counts_equal_pinned_engine_runs(q):
    """Anchored counts equal a pin-respecting monomorphism count.

    The per-cell reference is the plain backtracking counter; VF2 checks
    that counter on the first cell with a nonzero count.  Arc ``(a, b)``
    pinned at ``(u, v)`` and arc ``(b, a)`` pinned at ``(v, u)`` ask the
    same question, so each answer is computed once."""
    total = 0
    vf2_checked = False
    for seed in (5, 6):
        g = powerlaw_cluster(18, 6, 0.9, seed=seed)
        if q.is_labeled:
            g = assign_random_labels(g, num_labels=2, seed=seed)
        ref: dict[frozenset[tuple[int, int]], int] = {}
        edges = sorted(g.edges())
        pinned = [e for u, v in edges[:: len(edges) // 3][:3] for e in ((u, v), (v, u))]
        for a, b in q.edges():
            for arc in ((a, b), (b, a)):
                plan = _anchored_plan(q, *arc)
                for u, v in pinned:
                    key = frozenset({(arc[0], u), (arc[1], v)})
                    if key not in ref:
                        ref[key] = oracle.count_pinned_embeddings(
                            g, q, plan.order, {0: u, 1: v})
                        if ref[key] and not vf2_checked:
                            assert ref[key] == oracle.count_pinned_monomorphisms(
                                g, q, plan.order, {0: u, 1: v}), (arc, (u, v))
                            vf2_checked = True
                    want = ref[key]
                    assert frontier_count(g, plan, {0: u, 1: v}) == want, (arc, (u, v))
                    total += want
    assert total > 0 and vf2_checked  # the comparison was not 0 == 0 throughout


def _self_loop_graph(seed: int, n: int = 20, p: float = 0.3) -> CSRGraph:
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, 1)
    mask |= mask.T
    np.fill_diagonal(mask, rng.random(n) < 0.5)
    rows = [np.flatnonzero(mask[v]).astype(np.int32) for v in range(n)]
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.int64)
    return CSRGraph(indptr=indptr, indices=np.concatenate(rows))


@pytest.mark.parametrize("seed", [0, 1])
def test_self_loops_do_not_change_counts(seed):
    g = _self_loop_graph(seed)
    assert any(v in g.neighbors(v) for v in range(g.num_vertices))
    loop_free = CSRGraph.from_edges(g.num_vertices, list(g.edges()))
    engine = STMatchEngine(g)
    for qname in QUERY_NAMES[:13]:
        q = get_query(qname)
        assert _count(g, q) == _count(loop_free, q) == engine.count(q), qname
        assert _count(g, q, True) == engine.count(q, vertex_induced=True), qname


class _GatherLog:
    """A graph that records the size of every ``neighbors_batch``."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.num_vertices = graph.num_vertices
        self.labels = graph.labels
        self.directed = graph.directed
        self.gathers: list[tuple[int, int]] = []  # (rows, elements)

    def degree(self):
        return self.graph.degree()

    def neighbors(self, v):
        return self.graph.neighbors(v)

    def neighbors_batch(self, vs):
        vals, offs = self.graph.neighbors_batch(vs)
        self.gathers.append((len(vs), int(vals.size)))
        return vals, offs


@pytest.mark.parametrize("budget", [1, 16, 200])
def test_budget_bounds_every_gather_not_the_count(monkeypatch, budget):
    g = powerlaw_cluster(30, 4, 0.6, seed=3)
    plans = [build_plan(get_query(n), data_graph=g, vertex_induced=vi)
             for n in ("q1", "q4", "q7", "q10") for vi in (False, True)]
    want = [frontier_count(g, plan) for plan in plans]
    monkeypatch.setattr(frontier, "CHUNK_ELEMS", budget)
    logged = _GatherLog(g)
    assert [frontier_count(logged, plan) for plan in plans] == want
    assert logged.gathers
    assert all(elems <= budget or rows == 1 for rows, elems in logged.gathers)
    if budget > 1:
        assert any(rows > 1 for rows, _ in logged.gathers)  # chunks were not all cut to one row


def test_pins_outside_the_graph_count_nothing():
    g = powerlaw_cluster(20, 3, 0.5, seed=1)
    plan = build_plan(get_query("q1"), symmetry_breaking=False)
    assert frontier_count(g, plan, {0: g.num_vertices, 1: 0}) == 0


def test_directed_input_is_rejected():
    dq = QueryGraph.from_arcs(3, [(0, 1), (1, 2)])
    dg = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=True)
    with pytest.raises(NotImplementedError):
        frontier_count(dg, build_plan(dq, data_graph=dg))
    with pytest.raises(NotImplementedError):
        frontier_count(dg, build_plan(get_query("q1")))


def test_labeled_plan_on_unlabeled_graph_is_rejected():
    g = powerlaw_cluster(20, 3, 0.5, seed=1)
    q = get_query("q1").with_labels([0] * get_query("q1").size)
    with pytest.raises(ValueError, match="labeled plan on unlabeled data graph"):
        frontier_count(g, build_plan(q))
