"""The compiled codegen tier's contract: byte-identical everything.

``EngineConfig.codegen`` swaps the interpreted walk of the lowered
program for a per-(query, schedule) emitted Python module
(``repro.codegen``).  The generated kernels must issue identical cycle
charges in identical order, so every observable — match count,
simulated cycle total, run status, steal counts, budget truncation
point — is byte-identical across all three backends (the per-slot
reference in ``tests/oracle.py``, the interpreted walk, codegen).
These tests pin that 3-way identity over the paper's q1–q13 ×
labeled/unlabeled × unroll factors, check engine counts against the
golden-count oracle fixture, exercise the sanitizer and the process
executor under the compiled tier, and pin the infrastructure itself:
deterministic re-emission, the plan-keyed LRU code cache, the B408
source-budget lint and the ``REPRO_CODEGEN`` override.
"""

import os

import numpy as np
import pytest

from repro import EngineConfig, STMatchEngine
from repro.analysis.budget import lint_budget
from repro.analysis.diagnostics import RULE_REGISTRY
from repro.codegen import LRUCache, resolve_codegen
from repro.codegen.compile import (
    clear_code_cache,
    code_cache_stats,
    compiled_kernel,
)
from repro.codegen.emit import codegen_key, emit_kernel_source
from repro.core.counters import RunStatus
from repro.core.engine import cached_plan, plan_cache_stats
from repro.core.multi_gpu import run_multi_gpu
from repro.graph import CSRGraph
from repro.graph.labels import assign_random_labels, relabel_query_consistently
from repro.parallel import shutdown_pools
from repro.pattern import QUERIES
from tests import oracle
from tests.oracle import ReferenceCandidateComputer, ReferenceEngine

QUERY_NAMES = [f"q{i}" for i in range(1, 14)]


@pytest.fixture(scope="module", autouse=True)
def _controlled_backend():
    """The A/B below sets codegen/executor explicitly: neutralize
    CI-matrix env overrides for this module, and drop worker pools
    afterwards."""
    saved = {k: os.environ.pop(k, None)
             for k in ("REPRO_CODEGEN", "REPRO_EXECUTOR", "REPRO_NUM_WORKERS")}
    yield
    for k, v in saved.items():
        if v is not None:
            os.environ[k] = v
    shutdown_pools()


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


def _fingerprint(res):
    return (res.matches, res.cycles, res.status,
            res.num_local_steals, res.num_global_steals)


def _run_three_way(graph, query, **cfg_kw):
    """Reference, interpreted walk, and codegen runs of one cell."""
    ref = ReferenceEngine(graph, EngineConfig(**cfg_kw)).run(query)
    fast = STMatchEngine(graph, EngineConfig(**cfg_kw)).run(query)
    cg = STMatchEngine(graph, EngineConfig(codegen=True, **cfg_kw)).run(query)
    return ref, fast, cg


def _assert_three_way(ref, fast, cg):
    assert _fingerprint(ref) == _fingerprint(fast)
    assert _fingerprint(fast) == _fingerprint(cg)


class TestThreeWayIdentity:
    """q1–q13 × labeling: reference == walk == codegen."""

    @pytest.mark.parametrize("qname", QUERY_NAMES)
    @pytest.mark.parametrize("labeled", [False, True],
                             ids=["unlabeled", "labeled"])
    def test_matches_cycles_steals_identical(self, qname, labeled):
        g = _random_graph(26, 0.3, seed=11)
        q = QUERIES[qname]
        if labeled:
            g, q = _labeled_pair(g, q)
        _assert_three_way(*_run_three_way(g, q, max_results=40_000))

    @pytest.mark.parametrize("unroll", [1, 4, 8])
    def test_unroll_factors(self, unroll):
        g = _random_graph(22, 0.35, seed=5)
        for qname in ("q2", "q4", "q7"):
            _assert_three_way(
                *_run_three_way(g, QUERIES[qname], unroll=unroll))

    def test_unroll_factors_share_one_kernel(self):
        # unroll sizes the slot batches at run time; the emitted code
        # never reads it, so it is not part of the code-cache key
        g = _random_graph(22, 0.35, seed=5)
        plan = cached_plan(g, QUERIES["q4"])
        clear_code_cache(reset_stats=True)
        kernels = [
            compiled_kernel(plan, EngineConfig(codegen=True, unroll=unroll))
            for unroll in (1, 4, 8)
        ]
        assert kernels[0] is kernels[1] is kernels[2]
        stats = code_cache_stats()
        assert (stats["size"], stats["misses"], stats["hits"]) == (1, 1, 2)
        assert "unroll=" not in kernels[0].source
        clear_code_cache(reset_stats=True)

    def test_vertex_induced(self):
        g = _random_graph(20, 0.4, seed=3)
        q = QUERIES["q4"]
        runs = [
            engine(g, EngineConfig(codegen=cg)).run(q, vertex_induced=True)
            for engine, cg in ((ReferenceEngine, False), (STMatchEngine, False),
                               (STMatchEngine, True))
        ]
        _assert_three_way(*runs)

    def test_sanitizer_on(self):
        # the runtime sanitizer observes the same steal protocol either way
        g = _random_graph(24, 0.3, seed=9)
        for qname in ("q1", "q5"):
            _assert_three_way(
                *_run_three_way(g, QUERIES[qname], sanitize=True,
                                max_results=40_000))

    def test_budget_truncation_point(self):
        # identical charge order means identical truncation under budget
        g = _random_graph(24, 0.35, seed=13)
        _assert_three_way(*_run_three_way(g, QUERIES["q5"], max_results=500))


class TestGoldenCounts:
    """Codegen counts equal the checked-in VF2 ground truth."""

    @pytest.fixture(scope="class")
    def fixture(self):
        return oracle.load_fixture()

    @pytest.fixture(scope="class")
    def graphs(self):
        return oracle.corpus_graphs()

    @pytest.mark.parametrize("gname,qname", [
        ("sparse", "q1"), ("sparse", "q5"), ("sparse", "q7"),
        ("dense", "q6"), ("dense", "q13"),
    ])
    @pytest.mark.parametrize("mode", ["unlabeled", "labeled"])
    def test_codegen_equals_golden_count(self, fixture, graphs, gname,
                                         qname, mode):
        g, q = graphs[gname], QUERIES[qname]
        if mode == "labeled":
            g, q = oracle.labeled_pair(g, q)
        res = STMatchEngine(
            g, EngineConfig(codegen=True)).run(q)
        assert res.status == RunStatus.OK, repr(res)
        assert res.matches == fixture["counts"][gname][mode][qname]


class TestProcessExecutor:
    """The compiled tier under the process backend: kernels are
    re-derived worker-side from the pickled plan + config, never
    shipped — results stay byte-identical to serial."""

    def test_two_workers_identical(self):
        g = oracle.corpus_graphs()["sparse"]
        q = QUERIES["q5"]
        serial = run_multi_gpu(
            g, q, 2, EngineConfig(codegen=True, executor="serial"))
        process = run_multi_gpu(
            g, q, 2, EngineConfig(codegen=True, executor="process", num_workers=2))
        baseline = run_multi_gpu(g, q, 2, EngineConfig())
        assert serial.ok
        assert process.matches == serial.matches == baseline.matches
        assert process.sim_ms == serial.sim_ms == baseline.sim_ms
        assert process.status == serial.status
        assert ([(r.matches, r.cycles, r.status) for r in process.per_device]
                == [(r.matches, r.cycles, r.status) for r in serial.per_device])


class TestEmissionDeterminism:
    def test_reemit_is_byte_identical(self):
        g = _random_graph(26, 0.3, seed=11)
        cfg = EngineConfig(codegen=True)
        for qname in QUERY_NAMES:
            plan = cached_plan(g, QUERIES[qname])
            first = emit_kernel_source(plan, cfg)
            assert emit_kernel_source(plan, cfg) == first

    def test_key_and_source_are_graph_independent(self):
        # two different data graphs, same query + resolved schedule:
        # one cache key, one emitted module
        g1 = _random_graph(26, 0.3, seed=11)
        g2 = _random_graph(40, 0.2, seed=23)
        cfg = EngineConfig(codegen=True)
        p1 = cached_plan(g1, QUERIES["q5"])
        p2 = cached_plan(g2, QUERIES["q5"], order=tuple(p1.order))
        assert codegen_key(p1, cfg) == codegen_key(p2, cfg)
        assert emit_kernel_source(p1, cfg) == emit_kernel_source(p2, cfg)

    def test_source_has_no_graph_constants(self):
        g = _random_graph(26, 0.3, seed=11)
        src = emit_kernel_source(cached_plan(g, QUERIES["q3"]),
                                 EngineConfig())
        # graph state is only reachable through the computer instance C
        for forbidden in (str(g.num_vertices), "indices[", "labels["):
            assert forbidden not in src.replace("slot_arr + 1", "")


class TestCodeCache:
    def test_compile_once_then_hit(self):
        g = _random_graph(26, 0.3, seed=11)
        plan = cached_plan(g, QUERIES["q2"])
        cfg = EngineConfig(codegen=True)
        clear_code_cache(reset_stats=True)
        k1 = compiled_kernel(plan, cfg)
        k2 = compiled_kernel(plan, cfg)
        assert k1 is k2
        stats = code_cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1
        clear_code_cache(reset_stats=True)

    def test_lru_counts_and_evicts(self):
        lru = LRUCache(2, name="t")
        assert lru.get("a") is None
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refreshes recency
        lru.put("c", 3)  # evicts b (coldest)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.stats() == {"hits": 2, "misses": 2, "evictions": 1,
                               "size": 2, "capacity": 2}

    def test_plan_cache_counters_exposed(self):
        g = _random_graph(20, 0.3, seed=17)
        cfg = EngineConfig(codegen=True)
        before = plan_cache_stats(g)["hits"]
        eng = STMatchEngine(g, cfg)
        eng.run(QUERIES["q1"])
        eng.run(QUERIES["q1"])
        after = plan_cache_stats(g)
        assert after["hits"] > before
        assert after["size"] >= 1

    def test_observed_report_carries_cache_counters(self):
        g = _random_graph(20, 0.3, seed=17)
        res = STMatchEngine(
            g, EngineConfig(codegen=True, observe=True)
        ).run(QUERIES["q1"])
        caches = res.report["caches"]
        for name in ("plan", "codegen"):
            for counter in ("hits", "misses", "evictions", "size", "capacity"):
                assert isinstance(caches[name][counter], int)
        from repro.obs import validate_report

        validate_report(res.report)


class TestConfigAndLint:
    def test_env_override_never_reaches_reference_runs(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        g = _random_graph(20, 0.3, seed=17)
        plan = cached_plan(g, QUERIES["q5"])
        cfg = EngineConfig(codegen=True)
        computer = ReferenceEngine(g, cfg)._make_computer(plan, cfg)
        assert type(computer) is ReferenceCandidateComputer

    def test_b408_registered_and_fires(self, monkeypatch):
        assert "B408" in RULE_REGISTRY
        g = _random_graph(20, 0.3, seed=17)
        plan = cached_plan(g, QUERIES["q5"])
        cfg = EngineConfig()
        quiet = lint_budget(plan, cfg, g)
        assert "B408" not in [d.rule for d in quiet.diagnostics]
        import repro.codegen.emit as emit

        monkeypatch.setattr(emit, "SOURCE_BUDGET_BYTES", 16)
        noisy = lint_budget(plan, cfg, g)
        assert "B408" in [d.rule for d in noisy.diagnostics]

    @pytest.mark.parametrize("raw,expect", [
        ("1", True), ("true", True), ("ON", True),
        ("0", False), ("no", False), ("", None), (None, None),
    ])
    def test_repro_codegen_env_resolution(self, monkeypatch, raw, expect):
        if raw is None:
            monkeypatch.delenv("REPRO_CODEGEN", raising=False)
        else:
            monkeypatch.setenv("REPRO_CODEGEN", raw)
        cfg = EngineConfig(codegen=True)
        off = EngineConfig(codegen=False)
        if expect is None:  # defer to the config
            assert resolve_codegen(cfg) is True
            assert resolve_codegen(off) is False
        else:
            assert resolve_codegen(cfg) is expect
            assert resolve_codegen(off) is expect

    def test_repro_codegen_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN", "maybe")
        with pytest.raises(ValueError, match="REPRO_CODEGEN"):
            resolve_codegen(EngineConfig())

    def test_env_override_flips_backend(self, monkeypatch):
        # REPRO_CODEGEN=1 turns the compiled tier on without touching
        # call sites — and the results stay identical by contract
        g = _random_graph(22, 0.3, seed=19)
        q = QUERIES["q3"]
        plain = STMatchEngine(g, EngineConfig()).run(q)
        monkeypatch.setenv("REPRO_CODEGEN", "1")
        forced = STMatchEngine(g, EngineConfig()).run(q)
        assert _fingerprint(plain) == _fingerprint(forced)
