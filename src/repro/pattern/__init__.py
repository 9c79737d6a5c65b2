"""Query patterns, matching orders, symmetry breaking and plans."""

from .matching_order import (
    exhaustive_order,
    greedy_order,
    is_connected_order,
    validate_order,
)
from .motifs import QUERIES, connected_motifs, get_query, queries_of_size, query_names
from .plan import MatchingPlan, build_plan
from .query import QueryGraph
from .symmetry import (
    num_automorphisms,
    partial_order_matrix,
    restrictions_by_level,
    restrictions_for,
    stabilizer_chain,
)

__all__ = [
    "QueryGraph",
    "QUERIES",
    "get_query",
    "query_names",
    "queries_of_size",
    "connected_motifs",
    "greedy_order",
    "exhaustive_order",
    "is_connected_order",
    "validate_order",
    "restrictions_for",
    "restrictions_by_level",
    "partial_order_matrix",
    "num_automorphisms",
    "stabilizer_chain",
    "MatchingPlan",
    "build_plan",
]
