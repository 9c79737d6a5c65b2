"""Exact served counts come from the frontier, on the one shard path.

``MatchService`` runs a request's shard ``count_only`` when the exact
count is all it must produce: no budget after tenant, request and
rung-2 caps, undirected graph and query, no armed fault plan, no
``sanitize`` / ``observe`` / ``checkpoint_interval``, and a tenant
without a ``cycle_quota``.  Such a shard is answered by
``frontier_count`` and reports zero cycles.  These tests hold those
answers to ``STMatchEngine.count`` under both executors, check that
every ineligible request still runs the simulator (``cycles > 0``),
and that a frontier-filled cache entry patches forward through
``apply_edits`` to the count of the compacted graph.
"""

from __future__ import annotations

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.dynamic import EditBatch, OverlayGraph
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.graph.csr import CSRGraph
from repro.parallel import shutdown_pools
from repro.pattern import QueryGraph, get_query
from repro.serve import (
    CircuitBreaker,
    MatchRequest,
    MatchService,
    ResponseStatus,
    TenantPolicy,
)

from tests import oracle

EXECUTORS = {
    "serial": EngineConfig(executor="serial"),
    "process": EngineConfig(executor="process", num_workers=2),
}


@pytest.fixture(scope="module")
def hosted():
    """Each corpus graph, bare and labeled, with its requests' queries."""
    graphs: dict[str, CSRGraph] = {}
    cells: list[tuple[str, QueryGraph, bool]] = []
    for gname, g in oracle.corpus_graphs().items():
        for qname in oracle.ORACLE_QUERIES:
            lg, lq = oracle.labeled_pair(g, get_query(qname))
            for vi in (False, True):
                cells.append((gname, get_query(qname), vi))
                cells.append((f"{gname}-labeled", lq, vi))
        graphs[gname], graphs[f"{gname}-labeled"] = g, lg
    return graphs, cells


@pytest.fixture(scope="module")
def engine_counts(hosted):
    graphs, cells = hosted
    engines = {name: STMatchEngine(g) for name, g in graphs.items()}
    return [engines[name].count(q, vertex_induced=vi) for name, q, vi in cells]


@pytest.mark.parametrize("executor", sorted(EXECUTORS))
def test_exact_served_counts_equal_engine_counts(hosted, engine_counts, executor):
    graphs, cells = hosted
    svc = MatchService(graphs, EXECUTORS[executor])
    try:
        for (name, q, vi), want in zip(cells, engine_counts, strict=True):
            r = svc.match(MatchRequest(graph=name, query=q, vertex_induced=vi))
            assert r.status == ResponseStatus.OK, r.detail
            assert (r.matches, r.exact) == (want, True), (name, q.name, vi)
            assert r.cycles == 0.0 and r.served_from == "engine", (name, q.name, vi)
    finally:
        shutdown_pools()


def _open_breaker() -> CircuitBreaker:
    breaker = CircuitBreaker(failure_threshold=1, cooldown_s=1e9)
    breaker.record_failure("forced open")
    return breaker


#: (service kwargs, request kwargs) of requests the simulator must answer
INELIGIBLE = {
    "budgeted": ({}, {"budget": 10**9}),
    "sanitize": ({"config": EngineConfig(sanitize=True)}, {}),
    "observe": ({"config": EngineConfig(observe=True)}, {}),
    "checkpoint": ({"config": EngineConfig(checkpoint_interval=4)}, {}),
    "fault-plan": ({"fault_plan": FaultPlan(events=(
        FaultEvent(FaultKind.DEVICE_FAIL, device=7, at_cycle=10),))}, {}),
    "cycle-quota": ({"tenants": {"metered": TenantPolicy(cycle_quota=1e15)}},
                    {"tenant": "metered"}),
    "rung-2": ({"pressure_threshold": 1, "breaker": _open_breaker()}, {}),
}


@pytest.mark.parametrize("case", sorted(INELIGIBLE))
def test_ineligible_requests_stay_on_the_simulator(case):
    g = oracle.corpus_graphs()["sparse"]
    svc_kw, req_kw = INELIGIBLE[case]
    svc = MatchService({"g": g}, **svc_kw)
    r = svc.match(MatchRequest(graph="g", query=get_query("q1"), **req_kw))
    assert r.status == ResponseStatus.OK, r.detail
    assert r.cycles > 0 and r.served_from == "engine"
    if r.exact:
        assert r.matches == STMatchEngine(g).count(get_query("q1"))
    assert r.degrade_level == (2 if case == "rung-2" else 0)


def test_directed_requests_stay_on_the_simulator():
    arcs = [(u, v) for u in range(12) for v in range(12) if u != v and (3 * u + v) % 4 == 0]
    g = CSRGraph.from_edges(12, arcs, directed=True)
    q = QueryGraph.from_arcs(3, [(0, 1), (1, 2)], name="path3d")
    r = MatchService({"g": g}).match(MatchRequest(graph="g", query=q))
    assert r.status == ResponseStatus.OK, r.detail
    assert r.cycles > 0 and r.exact
    assert r.matches == STMatchEngine(g).count(q) > 0


def test_rung_1_degrades_onto_the_frontier():
    g = oracle.corpus_graphs()["sparse"]
    r = MatchService({"g": g}, pressure_threshold=1).match(
        MatchRequest(graph="g", query=get_query("q2")))
    assert r.degraded and r.degrade_level == 1
    assert r.cycles == 0.0 and r.exact
    assert r.matches == STMatchEngine(g).count(get_query("q2"))


@pytest.mark.parametrize("qname", ["q1", "q4"])
def test_frontier_entry_patches_forward_to_the_compacted_count(qname):
    g = oracle.corpus_graphs()["dense"]
    q = get_query(qname)
    svc = MatchService({"g": g})
    first = svc.match(MatchRequest(graph="g", query=q))
    assert first.cycles == 0.0 and first.served_from == "engine"
    inserts, deletes = oracle.seeded_edit_batch(g, 3, num_deletes=3, num_inserts=3)
    report = svc.apply_edits("g", inserts=inserts, deletes=deletes)
    assert report.entries_patched == 1
    patched = svc.match(MatchRequest(graph="g", query=q))
    assert patched.served_from == "cache" and patched.exact
    compacted = OverlayGraph.from_edits(
        g, EditBatch.from_lists(inserts=inserts, deletes=deletes)).compact()
    assert patched.matches == STMatchEngine(compacted).count(q) != first.matches
