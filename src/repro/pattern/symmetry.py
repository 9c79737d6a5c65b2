"""Symmetry breaking for subgraph counting.

Without restrictions, a backtracking matcher reports every *embedding*
(injective mapping), so each subgraph is found ``|Aut(Q)|`` times.
Graph-mining systems (Dryadic, GraphPi, AutoMine — and STMatch, which
inherits Dryadic's plans) instead emit each subgraph once by imposing a
partial order on the data-vertex ids bound to symmetric query vertices.

:func:`stabilizer_chain` implements the standard stabilizer-chain
construction without ever listing the group: walk positions ``0..k-1``
of the (already matching-order-relabeled) query; at position ``i``, with
positions ``< i`` fixed to the identity, position ``j > i`` is in the
orbit of ``i`` exactly when *one* automorphism maps ``i → j``, which a
find-first :class:`~repro.pattern.query.IsomorphismSearch` decides.
Every ``j`` in the orbit gets a ``m[i] < m[j]`` restriction, and by the
orbit–stabilizer theorem ``|Aut(Q)|`` is the product of the orbit sizes.
Because each automorphism considered at step ``i`` fixes all positions
``< i``, the orbit only contains positions ``>= i`` and all restrictions
point forward in the matching order.

Correctness invariant (checked by tests): with restrictions applied the
match count equals ``embeddings / |Aut(Q)|`` exactly.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .query import IsomorphismSearch, QueryGraph

__all__ = [
    "stabilizer_chain",
    "group_by_level",
    "restrictions_for",
    "restrictions_by_level",
    "num_automorphisms",
    "arc_orbits",
]


def stabilizer_chain(query: QueryGraph) -> tuple[list[tuple[int, int]], int]:
    """Symmetry-breaking restrictions and ``|Aut(Q)|`` in one pass.

    Returns ``(restrictions, num_automorphisms)``: the pairs ``(i, j)``
    with ``i < j`` meaning "the data vertex matched at position ``i``
    must have a smaller id than the one at position ``j``", sorted, and
    the size of the automorphism group.

    The query must already be relabeled into matching order (positions
    are vertex ids).  At most ``k(k-1)/2`` find-first searches run, so
    the cost does not grow with ``|Aut(Q)|``.
    """
    search = IsomorphismSearch(query, query)
    restrictions: list[tuple[int, int]] = []
    n_aut = 1
    for i in range(query.size):
        fixed = tuple(range(i))
        orbit_size = 1
        for j in range(i + 1, query.size):
            if next(search.maps(fixed + (j,)), None) is not None:
                restrictions.append((i, j))
                orbit_size += 1
        n_aut *= orbit_size
    return restrictions, n_aut


def num_automorphisms(query: QueryGraph) -> int:
    """Size of the query's automorphism group, |Aut(Q)|."""
    return stabilizer_chain(query)[1]


def arc_orbits(query: QueryGraph) -> list[tuple[tuple[int, int], int]]:
    """The ``Aut(Q)``-orbits of the query's arcs, as ``(smallest arc,
    orbit size)`` pairs in ascending arc order.

    An arc is an ordered pair ``(a, b)`` with ``adj[a, b]`` set, so an
    undirected edge contributes both orientations and the sizes sum to
    ``2|E|``.  Two arcs share an orbit exactly when *one* automorphism
    maps ``a → a'`` and ``b → b'``.  With the query relabeled so the
    representative sits at positions ``(0, 1)``, that is a find-first
    search for an isomorphism back onto the query with prefix
    ``(a', b')`` — at most ``2|E|`` searches per orbit, and as in
    :func:`stabilizer_chain` the group is never listed.
    """
    iu, iv = np.nonzero(query.adj)
    arcs = list(zip(iu.tolist(), iv.tolist()))  # row-major: ascending
    orbits: list[tuple[tuple[int, int], int]] = []
    placed: set[tuple[int, int]] = set()
    for rep in arcs:
        if rep in placed:
            continue
        rest = [w for w in range(query.size) if w not in rep]
        search = IsomorphismSearch(query.relabeled([*rep, *rest]), query)
        orbit = [arc for arc in arcs if arc not in placed
                 and next(search.maps(arc), None) is not None]
        placed.update(orbit)
        orbits.append((rep, len(orbit)))
    return orbits


def restrictions_for(query: QueryGraph) -> list[tuple[int, int]]:
    """The ``(i, j)`` restriction pairs of :func:`stabilizer_chain`."""
    return stabilizer_chain(query)[0]


def group_by_level(restrictions: Iterable[tuple[int, int]], k: int) -> list[list[int]]:
    """Reshape ``(i, j)`` pairs for candidate filtering.

    ``result[j]`` lists the earlier positions ``i`` whose matched vertex
    must be *smaller* than the candidate chosen at position ``j``; the
    matcher keeps only candidates ``v > max(m[i])``.
    """
    by_level: list[list[int]] = [[] for _ in range(k)]
    for i, j in restrictions:
        by_level[j].append(i)
    return by_level


def restrictions_by_level(query: QueryGraph) -> list[list[int]]:
    """:func:`restrictions_for` grouped by :func:`group_by_level`."""
    return group_by_level(restrictions_for(query), query.size)


def partial_order_matrix(query: QueryGraph) -> np.ndarray:
    """Boolean matrix ``R`` with ``R[i, j]`` = True when ``m[i] < m[j]``
    is required; convenience for visualization and tests."""
    k = query.size
    r = np.zeros((k, k), dtype=bool)
    for i, j in restrictions_for(query):
        r[i, j] = True
    return r
