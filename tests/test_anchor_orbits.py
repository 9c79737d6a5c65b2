"""Arc orbits of ``Aut(Q)``: the partition and the bijection behind it.

``repro.dynamic.incremental`` runs one anchored ``frontier_count`` per
orbit of query arcs and multiplies by the orbit size.  Two things make
that exact and are pinned here: ``repro.pattern.symmetry.arc_orbits``
is the orbit partition (against the ``k!`` enumeration in
``tests/oracle.py``, code not under test), and every arc of an orbit
really has the same anchored count as its representative on arbitrary
data graphs (``tests/test_frontier.py`` holds every one of these
anchored counts to a pinned VF2 count).
"""

import functools

import numpy as np
import pytest

from repro.core.frontier import frontier_count
from repro.dynamic.incremental import _anchor_order
from repro.graph.generators import powerlaw_cluster
from repro.graph.labels import assign_random_labels
from repro.pattern import QueryGraph, build_plan, get_query
from repro.pattern.plan import MatchingPlan
from repro.pattern.symmetry import arc_orbits

from tests import oracle

QUERY_NAMES = [f"q{i}" for i in range(1, 25)]
#: 0-1-2-3 with labels 0,1,1,0 keeps the reversal; 0,1,0,1 breaks it
SYMMETRIC_PATH = QueryGraph.path(4).with_labels([0, 1, 1, 0])
ASYMMETRIC_PATH = QueryGraph.path(4).with_labels([0, 1, 0, 1])


def _random_pattern(seed: int) -> QueryGraph:
    """Seeded connected pattern: spanning tree + extra edges, labeled
    from a 2-letter alphabet on odd seeds."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(3, 7))
    edges = {(int(rng.integers(0, v)), v) for v in range(1, k)}
    for u, v in rng.integers(0, k, (int(rng.integers(0, k + 1)), 2)).tolist():
        if u != v:
            edges.add((min(u, v), max(u, v)))
    labels = rng.integers(0, 2, k).tolist() if seed % 2 else None
    return QueryGraph.from_edges(k, sorted(edges), labels=labels, name=f"rand{seed}")


def _cases():
    corpus = oracle.corpus_graphs()["dense"]
    for name in QUERY_NAMES:
        q = get_query(name)
        yield pytest.param(q, id=name)
        yield pytest.param(oracle.labeled_pair(corpus, q)[1], id=f"{name}-labeled")
    yield pytest.param(SYMMETRIC_PATH, id="path-0110")
    yield pytest.param(ASYMMETRIC_PATH, id="path-0101")
    for k in (4, 5):
        yield pytest.param(QueryGraph.clique(k), id=f"clique{k}")
    for seed in range(24):
        yield pytest.param(_random_pattern(seed), id=f"rand{seed}")


def _reference_orbits(q: QueryGraph) -> tuple[list[tuple[tuple[int, int], int]], int]:
    """The arc partition read off the listed group, and ``|Aut|``."""
    group = oracle.bruteforce_automorphisms(q)
    orbits = {frozenset((s[a], s[b]) for s in group)
              for edge in q.edges() for a, b in (edge, edge[::-1])}
    return sorted((min(o), len(o)) for o in orbits), len(group)


@pytest.mark.parametrize("q", _cases())
def test_arc_orbits_equal_bruteforce_partition(q):
    want, n_aut = _reference_orbits(q)
    got = arc_orbits(q)
    assert got == want
    assert sum(size for _, size in got) == 2 * q.num_edges
    assert all(n_aut % size == 0 for _, size in got)  # orbit–stabilizer


def test_labels_can_break_the_reversal():
    # unlabeled path: reversal pairs every arc with its mirror image
    assert arc_orbits(QueryGraph.path(4)) == [((0, 1), 2), ((1, 0), 2), ((1, 2), 2)]
    assert arc_orbits(SYMMETRIC_PATH) == arc_orbits(QueryGraph.path(4))
    assert arc_orbits(ASYMMETRIC_PATH) == [
        ((a, b), 1) for a, b in [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]]
    assert arc_orbits(QueryGraph.clique(5)) == [((0, 1), 20)]


@functools.lru_cache(maxsize=None)
def _anchored_plan(q: QueryGraph, a: int, b: int) -> MatchingPlan:
    return build_plan(q, symmetry_breaking=False, order=_anchor_order(q, a, b))


def _anchored_count(g, q: QueryGraph, a: int, b: int, u: int, v: int) -> int:
    return frontier_count(g, _anchored_plan(q, a, b), {0: u, 1: v})


BIJECTION_CASES = [
    *(pytest.param(get_query(n), id=n) for n in QUERY_NAMES[:13]),
    *(pytest.param(get_query(n).with_labels(np.arange(get_query(n).size) % 2),
                   id=f"{n}-labeled") for n in QUERY_NAMES[:13]),
    pytest.param(SYMMETRIC_PATH, id="path-0110"),
    pytest.param(_random_pattern(4), id="rand4"),
]


@pytest.mark.parametrize("q", BIJECTION_CASES)
def test_every_arc_of_an_orbit_counts_like_its_representative(q):
    sigmas = oracle.bruteforce_automorphisms(q)
    total = 0
    for seed in (5, 6):
        g = powerlaw_cluster(18, 6, 0.9, seed=seed)
        if q.is_labeled:
            g = assign_random_labels(g, num_labels=2, seed=seed)
        edges = sorted(g.edges())
        pinned = [e for u, v in edges[:: len(edges) // 3][:3] for e in ((u, v), (v, u))]
        for (a, b), size in arc_orbits(q):
            orbit = sorted({(s[a], s[b]) for s in sigmas})
            assert len(orbit) == size and orbit[0] == (a, b)
            for u, v in pinned:
                want = _anchored_count(g, q, a, b, u, v)
                total += want
                for a2, b2 in orbit[1:]:
                    assert _anchored_count(g, q, a2, b2, u, v) == want, (
                        q.name, (a, b), (a2, b2), (u, v))
    assert total > 0  # the comparison was not 0 == 0 throughout
