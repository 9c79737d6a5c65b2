"""Reference backtracking matcher — Algorithm 1, verbatim.

This is the correctness oracle for every other engine in the library.
It is deliberately *independent* of the set-program machinery: candidate
sets are derived directly from the query adjacency matrix with plain
NumPy set operations, so a bug in the code-motion analysis or the
virtual-GPU set kernels cannot hide here.

Also provides brute-force and networkx cross-checks used by the test
suite to validate the oracle itself.
"""

from __future__ import annotations

from itertools import combinations, permutations
from typing import Callable

import numpy as np

from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.pattern.query import QueryGraph
from repro.pattern.symmetry import num_automorphisms

__all__ = [
    "RecursiveMatcher",
    "count_matches_recursive",
    "count_via_bruteforce",
    "count_via_networkx",
]


class RecursiveMatcher:
    """Direct recursive implementation of Algorithm 1 for a plan.

    Parameters
    ----------
    graph:
        Data graph.
    plan:
        Compiled matching plan (only its order/semantics/restrictions
        are used — candidate chains are re-derived from the adjacency).
    on_match:
        Optional callback receiving each complete match as a tuple of
        data-vertex ids in matching-order positions.
    max_matches:
        Stop after this many matches (None = unbounded); lets tests
        exercise early termination.
    """

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        on_match: Callable[[tuple[int, ...]], None] | None = None,
        max_matches: int | None = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.on_match = on_match
        self.max_matches = max_matches
        self.count = 0
        self._match = np.full(plan.size, -1, dtype=np.int64)
        if plan.is_labeled and not graph.is_labeled:
            raise ValueError("labeled plan requires a labeled data graph")

    # -- candidate generation (independent of SetProgram) ---------------

    def _root_candidates(self) -> np.ndarray:
        q = self.plan.query
        if q.labels is not None:
            return self.graph.vertices_with_label(int(q.labels[0])).astype(np.int64)
        return np.arange(self.graph.num_vertices, dtype=np.int64)

    def _candidates(self, level: int) -> np.ndarray:
        q = self.plan.query
        g = self.graph
        m = self._match
        cand: np.ndarray | None = None
        if q.directed:
            # arc i→level: candidate ∈ N_out(m[i]); arc level→i: ∈ N_in(m[i])
            for i in range(level):
                if q.adj[i, level]:
                    nbrs = g.neighbors(int(m[i])).astype(np.int64)
                    cand = nbrs if cand is None else np.intersect1d(cand, nbrs, assume_unique=True)
                if q.adj[level, i]:
                    nbrs = g.in_neighbors(int(m[i])).astype(np.int64)
                    cand = nbrs if cand is None else np.intersect1d(cand, nbrs, assume_unique=True)
        else:
            for i in range(level):
                if q.adj[level, i]:
                    nbrs = g.neighbors(int(m[i])).astype(np.int64)
                    cand = nbrs if cand is None else np.intersect1d(cand, nbrs, assume_unique=True)
        assert cand is not None, "matching order must be connected"
        if self.plan.vertex_induced:
            for i in range(level):
                if not q.adj[level, i]:
                    nbrs = g.neighbors(int(m[i])).astype(np.int64)
                    cand = np.setdiff1d(cand, nbrs, assume_unique=True)
        if q.labels is not None and g.labels is not None:
            cand = cand[g.labels[cand] == int(q.labels[level])]
        # injectivity: exclude already-matched vertices
        cand = cand[~np.isin(cand, m[:level])]
        # symmetry-breaking floor
        floor = self.plan.restriction_floor(level, m)
        if floor >= 0:
            cand = cand[cand > floor]
        return cand

    # -- Algorithm 1 ----------------------------------------------------

    def run(self) -> int:
        """Enumerate matches; returns the match count."""
        self.count = 0
        for v in self._root_candidates():
            if self._budget_hit():
                break
            self._match[0] = v
            self._enumerate(1)
        self._match[0] = -1
        return self.count

    def _budget_hit(self) -> bool:
        return self.max_matches is not None and self.count >= self.max_matches

    def _enumerate(self, level: int) -> None:
        if self._budget_hit():
            return
        if level == self.plan.size:
            self.count += 1
            if self.on_match is not None:
                self.on_match(tuple(int(x) for x in self._match))
            return
        for v in self._candidates(level):
            self._match[level] = int(v)
            self._enumerate(level + 1)
            self._match[level] = -1
            if self._budget_hit():
                return


def count_matches_recursive(
    graph: CSRGraph,
    plan: MatchingPlan,
    max_matches: int | None = None,
) -> int:
    """Convenience wrapper: count matches of ``plan`` on ``graph``."""
    return RecursiveMatcher(graph, plan, max_matches=max_matches).run()


# ---------------------------------------------------------------------------
# independent cross-checks (for validating the oracle itself)
# ---------------------------------------------------------------------------


def _labels_ok(graph: CSRGraph, query: QueryGraph, mapping: tuple[int, ...]) -> bool:
    if query.labels is None:
        return True
    if graph.labels is None:
        return False
    return all(int(graph.labels[mapping[u]]) == int(query.labels[u]) for u in range(query.size))


def count_via_bruteforce(
    graph: CSRGraph,
    query: QueryGraph,
    vertex_induced: bool = False,
    count_embeddings: bool = False,
) -> int:
    """Exhaustive count over all injective mappings (tiny graphs only).

    With ``count_embeddings`` False (default) each *subgraph* counts
    once — i.e. ``embeddings / |Aut(Q)|``, the quantity a symmetry-broken
    matcher reports; otherwise each injective embedding counts.
    """
    n = graph.num_vertices
    k = query.size
    if n > 40:
        raise ValueError("brute force is for tiny graphs (n <= 40)")
    embeddings = 0
    q_edges = {(min(u, v), max(u, v)) for u, v in query.edges()}
    for subset in combinations(range(n), k):
        for perm in permutations(subset):
            ok = True
            for u in range(k):
                for v in range(u + 1, k):
                    has = graph.has_edge(perm[u], perm[v])
                    want = (u, v) in q_edges
                    if want and not has:
                        ok = False
                        break
                    if vertex_induced and has and not want:
                        ok = False
                        break
                if not ok:
                    break
            if ok and _labels_ok(graph, query, perm):
                embeddings += 1
    if count_embeddings:
        return embeddings
    n_aut = num_automorphisms(query)
    assert embeddings % n_aut == 0, "embedding count must be divisible by |Aut|"
    return embeddings // n_aut


def count_via_networkx(
    graph: CSRGraph,
    query: QueryGraph,
    vertex_induced: bool = False,
    count_embeddings: bool = False,
) -> int:
    """Count via :mod:`networkx` (ISMAGS-free VF2 matcher).

    Edge-induced matching = monomorphism; vertex-induced = induced
    subgraph isomorphism.  networkx enumerates embeddings; subgraph
    counts divide by ``|Aut(Q)|``.
    """
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    g = graph.to_networkx()
    q = query.to_networkx()
    if query.labels is not None:
        node_match = nx.algorithms.isomorphism.categorical_node_match("label", -1)
    else:
        node_match = None
    gm = GraphMatcher(g, q, node_match=node_match)
    if vertex_induced:
        it = gm.subgraph_isomorphisms_iter()
    else:
        it = gm.subgraph_monomorphisms_iter()
    embeddings = sum(1 for _ in it)
    if count_embeddings:
        return embeddings
    n_aut = num_automorphisms(query)
    assert embeddings % n_aut == 0, "embedding count must be divisible by |Aut|"
    return embeddings // n_aut
