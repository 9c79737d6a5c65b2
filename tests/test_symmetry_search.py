"""The permutation-free symmetry analysis against its brute-force reference.

``repro.pattern.symmetry.stabilizer_chain`` decides orbits with
find-first partial-isomorphism searches and never lists the group; the
``k!`` enumeration it replaced lives on in ``tests/oracle.py`` and must
give the same restrictions, the same ``|Aut|`` and — for
``QueryGraph.automorphisms()`` — the same list in the same order.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pattern.query as query_module
from repro.pattern import (
    QueryGraph,
    build_plan,
    get_query,
    num_automorphisms,
    query_names,
    restrictions_for,
    stabilizer_chain,
)
from tests import oracle
from tests.test_directed import DIRECTED_QUERIES


def _registry_queries():
    for name in query_names():
        q = get_query(name)
        yield pytest.param(q, id=name)
        yield pytest.param(q.with_labels(np.arange(q.size) % 3), id=f"{name}-labeled")


def _family_queries():
    for k in range(3, 9):
        for family in ("clique", "cycle", "star", "path"):
            yield pytest.param(getattr(QueryGraph, family)(k), id=f"{family}{k}")


CASES = [
    *_registry_queries(),
    *(pytest.param(q, id=q.name) for q in DIRECTED_QUERIES),
    *_family_queries(),
]


def assert_equals_reference(q: QueryGraph) -> None:
    group = oracle.bruteforce_automorphisms(q)
    restrictions, n_aut = stabilizer_chain(q)
    assert restrictions == oracle.bruteforce_restrictions(q, group)
    assert n_aut == len(group)
    assert q.automorphisms() == group  # same maps, same (lexicographic) order


@pytest.mark.parametrize("q", CASES)
def test_search_equals_bruteforce(q):
    assert_equals_reference(q)
    # and in the position space plans are built in
    assert_equals_reference(build_plan(q).query)


@pytest.mark.parametrize("q", CASES)
def test_num_automorphisms_equals_networkx(q):
    assert num_automorphisms(q) == oracle.nx_num_automorphisms(q)


@st.composite
def connected_labeled_pattern(draw, max_k=7):
    """Random connected pattern: spanning tree + extra edges, optionally
    labeled from a small alphabet, optionally directed."""
    k = draw(st.integers(2, max_k))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, k)}
    extra = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)),
                          max_size=2 * k))
    edges |= {(u, v) for u, v in extra if u != v}
    labels = draw(st.none() | st.lists(st.integers(0, 2), min_size=k, max_size=k))
    make = QueryGraph.from_arcs if draw(st.booleans()) else QueryGraph.from_edges
    return make(k, sorted(edges), labels=labels)


@given(q=connected_labeled_pattern())
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_patterns_equal_bruteforce(q):
    assert_equals_reference(q)


@given(q=connected_labeled_pattern(), seed=st.integers(0, 2**31))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_isomorphism_of_random_relabelings(q, seed):
    order = np.random.default_rng(seed).permutation(q.size).tolist()
    shuffled = q.relabeled(order)
    assert q.is_isomorphic_to(shuffled) and shuffled.is_isomorphic_to(q)
    assert num_automorphisms(shuffled) == num_automorphisms(q)


@pytest.mark.parametrize("q", CASES)
def test_group_sanity(q):
    k = q.size
    restrictions, n_aut = stabilizer_chain(q)
    assert math.factorial(k) % n_aut == 0  # Lagrange: Aut(Q) <= S_k
    assert all(0 <= i < j < k for i, j in restrictions)
    if n_aut > 720:  # closure below is quadratic in |Aut|
        return
    group = q.automorphisms()
    members = set(group)
    assert len(members) == len(group) == n_aut
    assert tuple(range(k)) in members
    for s, t in itertools.product(group, repeat=2):
        assert tuple(s[t[u]] for u in range(k)) in members


def test_non_isomorphic_same_invariants():
    # K_{3,3} and the triangular prism are both 3-regular on 6 vertices, so
    # the invariant filter passes every vertex pair and only the search decides
    k33 = QueryGraph.from_edges(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    prism = QueryGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    assert not k33.is_isomorphic_to(prism)
    assert not k33.is_isomorphic_to(QueryGraph.cycle(5))  # size mismatch
    assert num_automorphisms(k33) == 72 and num_automorphisms(prism) == 12


def test_labels_must_match_for_isomorphism():
    a = QueryGraph.path(3).with_labels([0, 1, 0])
    assert a.is_isomorphic_to(QueryGraph.path(3).with_labels([0, 1, 0]))
    assert not a.is_isomorphic_to(QueryGraph.path(3).with_labels([1, 0, 1]))
    # unlabeled behaves as uniformly labeled 0
    assert QueryGraph.path(3).is_isomorphic_to(QueryGraph.path(3).with_labels([0, 0, 0]))


def test_no_permutation_enumeration_left(monkeypatch):
    """Structural guard in place of a timing test: nothing in
    ``repro.pattern.query`` may fall back to walking ``k!`` permutations."""
    def boom(*args, **kwargs):
        raise AssertionError("itertools.permutations used by repro.pattern.query")

    monkeypatch.setattr(itertools, "permutations", boom)
    monkeypatch.setattr(query_module, "permutations", boom, raising=False)
    assert build_plan(QueryGraph.clique(8)).num_automorphisms == math.factorial(8)
    assert build_plan(QueryGraph.cycle(8)).num_automorphisms == 16
    assert restrictions_for(QueryGraph.clique(8)) == [
        (i, j) for i in range(8) for j in range(i + 1, 8)]
    assert QueryGraph.cycle(8).is_isomorphic_to(QueryGraph.cycle(8).relabeled(
        [3, 7, 1, 5, 0, 2, 6, 4]))
    assert not QueryGraph.cycle(8).is_isomorphic_to(QueryGraph.path(8))
