"""The lowered walk's contract: byte-identical matches AND cycles.

Production `getCandidates` walks the plan's lowered program on
segmented arrays (docs/PERFORMANCE.md); `tests/oracle.py` keeps the
literal per-slot Fig. 7 transliteration as `ReferenceEngine`.  The two
must issue identical cycle charges in identical order, which makes
every observable — match count, cycle total, steal counts, budget
truncation point — byte-identical.  These tests pin that over random
graphs × the paper's queries × labeled/unlabeled × unroll factors,
plus the count-only leaf and `on_match` emission paths.
"""

import numpy as np
import pytest

from repro import EngineConfig, STMatchEngine
from repro.graph import CSRGraph
from repro.graph.labels import assign_random_labels, relabel_query_consistently
from repro.pattern import QUERIES

from tests.oracle import ReferenceEngine


def _random_graph(n: int, density: float, seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return CSRGraph.from_edges(n, edges)


def _labeled_pair(g, q, num_labels=3, seed=7):
    lg = assign_random_labels(g, num_labels=num_labels, seed=seed)
    abstract = np.arange(q.size, dtype=np.int32) % num_labels
    bound = relabel_query_consistently(abstract, lg, seed=seed)
    return lg, q.with_labels(bound)


def _run_pair(graph, query, **cfg_kw):
    ref = ReferenceEngine(graph, EngineConfig(**cfg_kw)).run(query)
    fast = STMatchEngine(graph, EngineConfig(**cfg_kw)).run(query)
    return ref, fast


def _assert_identical(ref, fast):
    assert ref.matches == fast.matches
    assert ref.cycles == fast.cycles  # byte-identical simulated clock
    assert ref.status == fast.status
    assert ref.num_local_steals == fast.num_local_steals
    assert ref.num_global_steals == fast.num_global_steals


QUERY_NAMES = [f"q{i}" for i in range(1, 14)]


class TestFastpathPinsReference:
    @pytest.mark.parametrize("qname", QUERY_NAMES)
    @pytest.mark.parametrize("labeled", [False, True], ids=["unlabeled", "labeled"])
    def test_matches_and_cycles_identical(self, qname, labeled):
        g = _random_graph(26, 0.3, seed=11)
        q = QUERIES[qname]
        if labeled:
            g, q = _labeled_pair(g, q)
        ref, fast = _run_pair(g, q, max_results=40_000)
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("unroll", [1, 4, 8])
    def test_unroll_factors(self, unroll):
        g = _random_graph(22, 0.35, seed=5)
        for qname in ("q2", "q4", "q7"):
            ref, fast = _run_pair(g, QUERIES[qname], unroll=unroll)
            _assert_identical(ref, fast)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_graphs(self, seed):
        g = _random_graph(14 + 3 * seed, 0.25 + 0.05 * seed, seed=seed)
        ref, fast = _run_pair(g, QUERIES["q5"])
        _assert_identical(ref, fast)

    def test_vertex_induced_semantics(self):
        g = _random_graph(20, 0.4, seed=3)
        q = QUERIES["q4"]
        ref = ReferenceEngine(g).run(q, vertex_induced=True)
        fast = STMatchEngine(g).run(q, vertex_induced=True)
        _assert_identical(ref, fast)

    def test_degree_filter_extension(self):
        g = _random_graph(24, 0.3, seed=9)
        ref, fast = _run_pair(g, QUERIES["q3"], degree_filter=True)
        _assert_identical(ref, fast)

    def test_budget_truncation_point_identical(self):
        """Identical schedules truncate at the same match under a budget."""
        g = _random_graph(24, 0.4, seed=2)
        ref, fast = _run_pair(g, QUERIES["q1"], max_results=500)
        _assert_identical(ref, fast)
        assert ref.matches >= 500  # the budget actually fired

    def test_bitmap_index_changes_nothing(self, monkeypatch):
        """The adjacency bitmap is a host-side lookup: cycles unchanged.

        It exists on in-memory graphs only, so the backend is pinned to
        memory here; a memory-mapped graph must refuse it (rule B409)."""
        monkeypatch.delenv("REPRO_GRAPH_BACKEND", raising=False)
        g = _random_graph(30, 0.5, seed=13)
        base = STMatchEngine(g).run(QUERIES["q2"])
        bm = STMatchEngine(g, EngineConfig(bitmap_threshold=1)).run(QUERIES["q2"])
        assert base.matches == bm.matches
        assert base.cycles == bm.cycles
        memmap = STMatchEngine(g, EngineConfig(bitmap_threshold=1, graph_backend="memmap"))
        with pytest.raises(ValueError, match="B409"):
            memmap.run(QUERIES["q2"])


class TestOnMatchEmission:
    def test_emitted_tuples_identical(self):
        """`on_match` forces frame materialization; tuples must agree."""
        g = _random_graph(16, 0.35, seed=17)
        q = QUERIES["q2"]
        seen = {}
        for fast, engine in ((False, ReferenceEngine), (True, STMatchEngine)):
            out = []
            engine(g).run(q, on_match=out.append)
            seen[fast] = out
        assert seen[False] == seen[True]  # same tuples, same order
        assert len(seen[True]) > 0
        assert all(isinstance(v, int) for m in seen[True] for v in m)

    def test_on_match_count_agrees_with_counting_run(self):
        g = _random_graph(16, 0.35, seed=17)
        q = QUERIES["q3"]
        out = []
        emitted = STMatchEngine(g).run(q, on_match=out.append)
        counted = STMatchEngine(g).run(q)
        assert emitted.matches == counted.matches == len(out)
        # count-only leaves vs materialized leaves: same simulated clock
        assert emitted.cycles == counted.cycles


class TestSanitizerCompatibility:
    def test_sanitized_run_still_identical(self):
        """sanitize=True disables count-only leaves but not the
        contract: walk and reference satisfy the sanitizer and agree."""
        g = _random_graph(18, 0.35, seed=21)
        ref, fast = _run_pair(g, QUERIES["q4"], sanitize=True)
        _assert_identical(ref, fast)
