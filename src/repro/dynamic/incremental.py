"""Incremental pattern counts over edge-edit batches (delta anchoring).

Instead of recounting a mutated graph from scratch, the incremental
counter explores only the matches that *touch a changed edge* — the
delta-anchoring idea of GPU-accelerated batch-dynamic subgraph matching
(arXiv 2401.17018).  Only the exact counts matter here, so the anchored
runs go to the simulator-free frontier counter
(``frontier_count(graph, plan, pins={0: u, 1: v})``,
:mod:`repro.core.frontier`), not to the cycle-accounted kernel.

Exactness argument (the math the differential suite pins down):

* Apply the batch as delete-then-insert.  With deletes ``d_1..d_p``
  applied one at a time, ``count(G_{j-1}) - count(G_j)`` is exactly the
  number of embeddings of ``G_{j-1}`` that *use* edge ``d_j`` (their
  difference is the set of embeddings mapping some query edge onto
  ``d_j``).  Summing telescopes to ``count(G) - count(G∖D)``.  The same
  telescoping applies to inserts ``e_1..e_i`` added over ``G∖D``.  No
  inclusion–exclusion is needed: an embedding touching ``k`` changed
  edges is attributed to exactly one of them (the first edge of the
  sequence whose presence/absence flips it).

* "Embeddings using data edge ``(u, v)``" is computed by anchored
  runs: for every query edge ``{a, b}`` (label-compatible with
  ``{u, v}``) and both orientations, count embeddings with
  ``m[a] = u, m[b] = v`` using a plan whose matching order starts
  ``[a, b]``.  Injectivity of embeddings means each one is counted by
  exactly one ``(query edge, orientation)`` pair, so the sum is an
  exact use-count — no dedup pass required.

* Anchored runs count *embeddings* (``symmetry_breaking=False``
  plans).  Both delta sets are closed under query automorphisms, so
  dividing by ``|Aut(query)|`` at the end yields the unique-match
  delta exactly; divisibility is asserted, not assumed.

* Only one arc per ``Aut(query)``-orbit of arcs is counted.  For an
  automorphism ``σ`` with ``σ(a) = a', σ(b) = b'``, ``m ↦ m∘σ`` is a
  bijection from the embeddings with ``m[a'] = u, m[b'] = v`` onto
  those with ``m[a] = u, m[b] = v``: ``σ`` permutes the query's edges
  and preserves its labels, so ``m∘σ`` is an (injective, edge- and
  label-respecting) embedding exactly when ``m`` is, and ``m ↦ m∘σ⁻¹``
  inverts it.  Every arc of an orbit therefore has the same anchored
  count on any data graph, and the representative's count times the
  orbit size is the orbit's share of the sum above.  All arcs of an
  orbit carry the representative's label pair, so label pruning keeps
  or skips an orbit as a whole.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.core.frontier import frontier_count
from repro.lru import LRUCache
from repro.pattern.matching_order import is_connected_order
from repro.pattern.plan import MatchingPlan, build_plan
from repro.pattern.symmetry import arc_orbits, num_automorphisms

from .overlay import EditBatch, OverlayGraph, overlaid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph
    from repro.pattern.query import QueryGraph

__all__ = ["CountDelta", "IncrementalMatcher", "count_delta"]

#: anchored plans are tiny and query-shaped, not data-shaped — a small
#: shared LRU with one entry per query, see _anchor_plans
_ANCHOR_PLAN_CACHE: LRUCache = LRUCache(256, name="anchor-plans")

#: one arc orbit's anchored count: the representative's plan, the orbit size,
#: and the representative's (label_a, label_b) — shared by the orbit
_OrbitAnchor = tuple[MatchingPlan, int, tuple[int | None, int | None]]


@dataclass(frozen=True)
class CountDelta:
    """Result of one incremental batch: the exact count change plus
    the work accounting of the anchored runs that produced it."""

    added: int  #: unique matches created by the batch
    removed: int  #: unique matches destroyed by the batch
    num_inserts: int  #: effective inserted edges (after normalization)
    num_deletes: int  #: effective deleted edges (after normalization)
    #: pinned frontier counts executed: one per (changed edge, arc-orbit
    #: representative) that survived label pruning, not one per query arc
    anchor_runs: int
    #: arc-orbit representatives skipped by label compatibility
    anchors_pruned: int
    wall_s: float  #: host wall-clock spent in :func:`count_delta`

    @property
    def net(self) -> int:
        """``count(G_new) - count(G_old)``."""
        return self.added - self.removed


def _anchor_order(query: QueryGraph, a: int, b: int) -> list[int]:
    """A connected matching order starting ``[a, b]``, completed
    greedily by (most back-edges, degree, lowest id)."""
    adj = query.undirected_adj()
    order = [a, b]
    placed = {a, b}
    while len(order) < query.size:
        best: tuple[int, int, int] | None = None
        best_v = -1
        for v in range(query.size):
            if v in placed:
                continue
            back = int(sum(1 for u in order if adj[v, u]))
            if back == 0:
                continue
            key = (back, int(adj[v].sum()), -v)
            if best is None or key > best:
                best = key
                best_v = v
        assert best_v >= 0, "query must be connected"
        order.append(best_v)
        placed.add(best_v)
    assert is_connected_order(query, order)
    return order


def _anchor_plans(query: QueryGraph) -> tuple[_OrbitAnchor, ...]:
    """One anchored plan per ``Aut(query)``-orbit of arcs, built on the
    orbit's smallest arc."""
    anchors = _ANCHOR_PLAN_CACHE.get(query)
    if anchors is None:
        anchors = tuple(
            (build_plan(
                query,
                data_graph=None,
                vertex_induced=False,
                symmetry_breaking=False,  # embedding counts; /|Aut| at the end
                order=_anchor_order(query, a, b),
            ), size, (query.label_of(a), query.label_of(b)))
            for (a, b), size in arc_orbits(query))
        _ANCHOR_PLAN_CACHE.put(query, anchors)
    return anchors


def _embeddings_using(
    graph: OverlayGraph,
    query: QueryGraph,
    u: int,
    v: int,
) -> tuple[int, int, int]:
    """Embeddings of ``graph`` that map some query edge onto the data
    edge ``(u, v)``; returns ``(count, runs, pruned)``."""
    total = 0
    runs = 0
    pruned = 0
    labeled = graph.is_labeled and query.labels is not None
    data_labels = (graph.label_of(u), graph.label_of(v)) if labeled else None
    for plan, orbit_size, labels in _anchor_plans(query):
        if labeled and labels != data_labels:
            pruned += 1
            continue
        total += orbit_size * frontier_count(graph, plan, {0: u, 1: v})
        runs += 1
    return total, runs, pruned


def count_delta(
    graph: CSRGraph | OverlayGraph,
    query: QueryGraph,
    batch: EditBatch,
    config: EngineConfig | None = None,
    symmetry_breaking: bool = True,
) -> tuple[CountDelta, OverlayGraph]:
    """Count change caused by applying ``batch`` to ``graph``.

    Returns ``(delta, mutated)`` where ``mutated`` is the post-batch
    overlay (over ``graph``'s base).  ``symmetry_breaking=True`` reports
    unique matches (embeddings / ``|Aut|``), matching
    ``STMatchEngine.count``'s default; ``False`` reports raw embedding
    deltas.
    """
    if getattr(graph, "directed", False) or query.directed:
        raise NotImplementedError(
            "incremental counts support undirected graphs and queries only")
    if config is not None and config.max_results is not None:
        raise ValueError(
            "incremental counts are exact; max_results budgets are not "
            "supported (run a budgeted full recount instead)")
    t0 = time.perf_counter()
    eff = batch.normalized_against(graph)
    current = overlaid(graph, EditBatch()) if not isinstance(
        graph, OverlayGraph) else graph
    if query.size < 2 or eff.empty:
        # vertex set is fixed, so single-vertex counts never change
        mutated = current.with_edits(eff) if not eff.empty else current
        return (CountDelta(0, 0, int(eff.inserts.shape[0]),
                           int(eff.deletes.shape[0]), 0, 0,
                           time.perf_counter() - t0), mutated)
    removed_emb = 0
    added_emb = 0
    runs = 0
    pruned = 0
    # deletes first, one at a time: anchor while the edge is still present
    for u, v in eff.deletes:
        emb, r, p = _embeddings_using(current, query, int(u), int(v))
        removed_emb += emb
        runs += r
        pruned += p
        current = current.with_edits(EditBatch.from_lists(deletes=[(u, v)]))
    # then inserts, one at a time: anchor once the edge is present
    for u, v in eff.inserts:
        current = current.with_edits(EditBatch.from_lists(inserts=[(u, v)]))
        emb, r, p = _embeddings_using(current, query, int(u), int(v))
        added_emb += emb
        runs += r
        pruned += p
    if symmetry_breaking:
        aut = num_automorphisms(query)
        assert added_emb % aut == 0 and removed_emb % aut == 0, (
            "delta embedding sets must be automorphism-closed")
        added, removed = added_emb // aut, removed_emb // aut
    else:
        added, removed = added_emb, removed_emb
    delta = CountDelta(
        added=added,
        removed=removed,
        num_inserts=int(eff.inserts.shape[0]),
        num_deletes=int(eff.deletes.shape[0]),
        anchor_runs=runs,
        anchors_pruned=pruned,
        wall_s=time.perf_counter() - t0,
    )
    return delta, current


class IncrementalMatcher:
    """Maintains an exact match count for one ``(graph, query)`` pair
    across edit batches.

    >>> m = IncrementalMatcher(graph, triangle)
    >>> m.count                      # full count, computed once
    >>> d = m.apply_batch(EditBatch.from_lists(inserts=[(0, 5)]))
    >>> m.count == old + d.net       # maintained incrementally
    True

    The overlay is compacted back into a fresh CSR once its delta
    grows past ``compact_threshold`` arcs, keeping read amplification
    bounded on long edit sequences.
    """

    def __init__(
        self,
        graph: CSRGraph,
        query: QueryGraph,
        config: EngineConfig | None = None,
        *,
        symmetry_breaking: bool = True,
        compact_threshold: int = 4096,
    ) -> None:
        if graph.directed or query.directed:
            raise NotImplementedError(
                "incremental counts support undirected graphs and "
                "queries only")
        self.query = query
        self.config = config or EngineConfig()
        self.symmetry_breaking = symmetry_breaking
        self.compact_threshold = int(compact_threshold)
        self._graph: CSRGraph | OverlayGraph = graph
        self._count = STMatchEngine(graph, self.config).count(
            query, symmetry_breaking=symmetry_breaking)
        self.batches_applied = 0

    @property
    def graph(self) -> CSRGraph | OverlayGraph:
        """The current (possibly overlaid) graph state."""
        return self._graph

    @property
    def count(self) -> int:
        """The maintained exact count for the current graph state."""
        return self._count

    def apply_batch(self, batch: EditBatch) -> CountDelta:
        """Apply one edit batch and fold its delta into the count."""
        delta, mutated = count_delta(
            self._graph, self.query, batch, self.config,
            symmetry_breaking=self.symmetry_breaking)
        self._graph = mutated
        self._count += delta.net
        self.batches_applied += 1
        if (isinstance(mutated, OverlayGraph)
                and mutated.num_delta_arcs > self.compact_threshold):
            self._graph = mutated.compact()
        return delta

    def materialized(self) -> CSRGraph:
        """The current graph as a fresh CSR (compacting if overlaid)."""
        g = self._graph
        return g.compact() if isinstance(g, OverlayGraph) else g

    def recount(self) -> int:
        """Full from-scratch count on the compacted graph (the
        differential suite's cross-check; not used by apply_batch)."""
        return STMatchEngine(self.materialized(), self.config).count(
            self.query, symmetry_breaking=self.symmetry_breaking)
