"""Matching plans: the compiled form of a query.

A :class:`MatchingPlan` bundles everything an engine needs to run
Algorithm 1 on a data graph:

* the query relabeled into matching order (positions = vertex ids),
* the matching semantics (edge- vs vertex-induced),
* symmetry-breaking restrictions (or none, for embedding counting),
* the :class:`~repro.codemotion.depgraph.SetProgram` — naive or
  code-motioned — that defines every candidate / intermediate set.

Plans are engine-agnostic: STMatch, the CPU Dryadic baseline and the
reference recursive matcher all execute the same plan, which is how the
integration tests pin them to identical match counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.codemotion.analysis import build_program
from repro.codemotion.depgraph import SetProgram
from repro.graph.csr import CSRGraph

from .matching_order import exhaustive_order, greedy_order, validate_order
from .query import QueryGraph
from .symmetry import group_by_level, stabilizer_chain

__all__ = [
    "MatchingPlan",
    "build_plan",
    "add_plan_observer",
    "remove_plan_observer",
]


@dataclass(frozen=True)
class MatchingPlan:
    """Executable matching plan (immutable).

    Attributes
    ----------
    query:
        The matching-order-relabeled query: position ``l`` in the order
        is query vertex ``l``.
    original_query:
        The query as supplied by the user.
    order:
        ``order[l]`` = original query vertex matched at position ``l``.
    vertex_induced:
        Vertex-induced semantics (adds set differences); edge-induced
        otherwise (the subgraph-isomorphism setting of cuTS/GSI).
    symmetry_breaking:
        Whether restrictions are applied, making the count "one per
        subgraph" instead of "one per embedding".
    restrictions:
        ``restrictions[l]`` = earlier positions whose matched vertex must
        be smaller than the vertex chosen at ``l`` (empty lists when
        symmetry breaking is off).
    program:
        The set program (see :mod:`repro.codemotion`).
    code_motion:
        Whether ``program`` is the lifted single-op form.
    """

    query: QueryGraph
    original_query: QueryGraph
    order: tuple[int, ...]
    vertex_induced: bool
    symmetry_breaking: bool
    restrictions: tuple[tuple[int, ...], ...]
    program: SetProgram
    code_motion: bool
    num_automorphisms: int = 1
    _stats: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.query.size

    @property
    def is_labeled(self) -> bool:
        return self.query.is_labeled

    @property
    def num_sets(self) -> int:
        return self.program.num_sets

    def restriction_floor(self, level: int, partial: Sequence[int]) -> int:
        """Smallest admissible data-vertex id (exclusive) at ``level``
        given the partial match; -1 when unrestricted."""
        floor = -1
        for i in self.restrictions[level]:
            v = int(partial[i])
            if v > floor:
                floor = v
        return floor

    def describe(self) -> str:
        """Multi-line human-readable plan dump (used by examples)."""
        lines = [
            f"plan for {self.original_query.name}: "
            f"{'vertex' if self.vertex_induced else 'edge'}-induced, "
            f"{'sym-break' if self.symmetry_breaking else 'embeddings'}, "
            f"{'code-motion' if self.code_motion else 'naive'}",
            f"  order: {list(self.order)}  |Aut| = {self.num_automorphisms}",
            f"  sets ({self.program.num_sets}):",
        ]
        for sid, r in enumerate(self.program.recipes):
            lines.append(f"    S{sid}: {r!r}")
        for l, rs in enumerate(self.restrictions):
            if rs:
                lines.append(f"  level {l}: candidate > m[{list(rs)}]")
        return "\n".join(lines)


# Observers run on every plan build_plan produces, before it is returned.
# The test suites register repro.analysis.verify here (autouse fixture) so
# every plan any test compiles is verified for free; observers that raise
# abort the build.  A list (not a module attribute that callers rebind)
# because the engine holds build_plan by reference.
_PLAN_OBSERVERS: list = []


def add_plan_observer(fn) -> None:
    """Register ``fn(plan)`` to run on every built plan."""
    if fn not in _PLAN_OBSERVERS:
        _PLAN_OBSERVERS.append(fn)


def remove_plan_observer(fn) -> None:
    """Unregister a previously added observer (no-op if absent)."""
    try:
        _PLAN_OBSERVERS.remove(fn)
    except ValueError:
        pass


def build_plan(
    query: QueryGraph,
    data_graph: CSRGraph | None = None,
    vertex_induced: bool = False,
    symmetry_breaking: bool = True,
    code_motion: bool = True,
    order: Sequence[int] | None = None,
    order_strategy: str = "greedy",
) -> MatchingPlan:
    """Compile ``query`` into a :class:`MatchingPlan`.

    Parameters
    ----------
    query:
        The pattern to match (labels, if any, must already be bound to
        data-graph label values).
    data_graph:
        Optional; used for order heuristics (label frequencies, average
        degree).  The plan itself is graph-independent.
    vertex_induced / symmetry_breaking / code_motion:
        Semantics and optimization toggles (see :class:`MatchingPlan`).
    order:
        Explicit matching order (original-query vertex ids); validated
        for connectivity.  Overrides ``order_strategy``.
    order_strategy:
        ``"greedy"`` (default) or ``"exhaustive"`` (Dryadic-style search
        over all connected orders).
    """
    if query.directed:
        if vertex_induced:
            raise NotImplementedError(
                "directed queries support edge-induced matching only"
            )
        if data_graph is not None and not data_graph.directed:
            raise ValueError("a directed query needs a directed data graph")
    if order is not None:
        order = list(order)
        validate_order(query, order)
    elif order_strategy == "greedy":
        label_freq = None
        if data_graph is not None and data_graph.is_labeled:
            from repro.graph.labels import label_histogram

            label_freq = label_histogram(data_graph)
        order = greedy_order(query, label_frequency=label_freq)
    elif order_strategy == "exhaustive":
        avg_deg = 16.0
        n = 10_000.0
        if data_graph is not None and data_graph.num_vertices:
            avg_deg = float(np.mean(data_graph.degree()))
            n = float(data_graph.num_vertices)
        order = exhaustive_order(query, avg_degree=avg_deg, num_vertices=n)
    else:
        raise ValueError(f"unknown order_strategy {order_strategy!r}")

    rq = query.relabeled(order)
    pairs, n_aut = stabilizer_chain(rq)
    restrictions = group_by_level(pairs if symmetry_breaking else [], rq.size)
    program = build_program(rq, vertex_induced=vertex_induced, code_motion=code_motion)
    plan = MatchingPlan(
        query=rq,
        original_query=query,
        order=tuple(order),
        vertex_induced=vertex_induced,
        symmetry_breaking=symmetry_breaking,
        restrictions=tuple(tuple(r) for r in restrictions),
        program=program,
        code_motion=code_motion,
        num_automorphisms=n_aut,
    )
    for observer in _PLAN_OBSERVERS:
        observer(plan)
    return plan
