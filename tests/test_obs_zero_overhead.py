"""Zero-overhead differential test: observability never changes a run.

The ``repro.obs`` contract (see ``docs/OBSERVABILITY.md``) is that
tracing hooks are read-only and charge-free: a run with metrics on is
**byte-identical** to the same run with metrics off — same matches,
same simulated cycles, same steal schedule, same per-warp clocks and
counters.  This file pins that contract for q1–q13 in the style of
``tests/test_fastpath_property.py``: run every query twice on explicit
devices, once dark and once observed, and compare everything the cost
model can see.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EngineConfig, STMatchEngine
from repro.graph import CSRGraph
from repro.graph.labels import assign_random_labels, relabel_query_consistently
from repro.obs import TraceCollector, validate_report
from repro.pattern import QUERIES
from repro.virtgpu.device import VirtualDevice

QUERY_NAMES = [f"q{i}" for i in range(1, 14)]


def _random_graph(n: int, density: float, seed: int) -> CSRGraph:
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
    return CSRGraph.from_edges(n, edges)


def _labeled_pair(g, q, num_labels=3, seed=7):
    lg = assign_random_labels(g, num_labels=num_labels, seed=seed)
    abstract = np.arange(q.size, dtype=np.int32) % num_labels
    return lg, q.with_labels(relabel_query_consistently(abstract, lg, seed=seed))


def _run(graph, query, cfg, collector=None):
    """Run ``query`` on a fresh explicit device."""
    dev = VirtualDevice(cfg.device, device_id=0)
    return STMatchEngine(graph, cfg).run(query, device=dev, collector=collector), dev


def _run_observed_pair(graph, query, cfg, collector=None):
    """Run ``query`` dark and observed on fresh explicit devices."""
    off, dev_off = _run(graph, query, cfg)
    on, dev_on = _run(graph, query, cfg.with_(observe=True), collector)
    return off, on, dev_off, dev_on


def _assert_byte_identical(off, on, dev_off, dev_on):
    assert on.matches == off.matches
    assert on.cycles == off.cycles            # exact float equality, not approx
    assert on.sim_ms == off.sim_ms
    assert on.status == off.status
    assert on.num_local_steals == off.num_local_steals
    assert on.num_global_steals == off.num_global_steals
    assert on.num_lost_steals == off.num_lost_steals
    assert on.counters == off.counters
    assert on.occupancy == off.occupancy
    assert on.thread_utilization == off.thread_utilization
    # the steal *schedule* is pinned transitively by per-warp clocks and
    # counters: any reordered or extra steal shifts some warp's timeline
    assert len(dev_on.warps) == len(dev_off.warps)
    for w_on, w_off in zip(dev_on.warps, dev_off.warps):
        assert w_on.clock == w_off.clock, (w_on, w_off)
        assert w_on.counters == w_off.counters, (w_on, w_off)


class TestZeroOverhead:
    def _pair(self, graph, query, cfg):
        return _run_observed_pair(graph, query, cfg)

    @pytest.mark.parametrize("qname", QUERY_NAMES)
    def test_observe_is_byte_identical(self, qname):
        g = _random_graph(26, 0.3, seed=11)
        off, on, dev_off, dev_on = self._pair(g, QUERIES[qname], EngineConfig())
        _assert_byte_identical(off, on, dev_off, dev_on)
        assert off.report is None
        assert on.report is not None
        validate_report(on.report)

    @pytest.mark.parametrize("qname", ["q4", "q8"])
    def test_observe_is_byte_identical_labeled(self, qname):
        g, q = _labeled_pair(_random_graph(26, 0.3, seed=11), QUERIES[qname])
        off, on, dev_off, dev_on = self._pair(g, q, EngineConfig())
        _assert_byte_identical(off, on, dev_off, dev_on)

    @pytest.mark.parametrize("qname", ["q5", "q11"])
    def test_observe_is_byte_identical_naive_config(self, qname):
        # the no-steal/no-unroll rung exercises different hook sites
        g = _random_graph(26, 0.3, seed=11)
        off, on, dev_off, dev_on = self._pair(g, QUERIES[qname], EngineConfig.naive())
        _assert_byte_identical(off, on, dev_off, dev_on)

    def test_observe_under_budget(self):
        g = _random_graph(26, 0.3, seed=11)
        cfg = EngineConfig(max_results=50)
        off, on, dev_off, dev_on = self._pair(g, QUERIES["q1"], cfg)
        assert off.status == "budget"
        _assert_byte_identical(off, on, dev_off, dev_on)


class TestZeroOverheadCodegen(TestZeroOverhead):
    """The same grid on the compiled tier, whose observed run also
    equals the interpreted walk's in everything the cost model sees and
    in its tracer event stream."""

    def _pair(self, graph, query, cfg):
        col, walk_col = TraceCollector(keep_events=True), TraceCollector(keep_events=True)
        off, on, dev_off, dev_on = _run_observed_pair(
            graph, query, cfg.with_(codegen=True), col)
        walk, dev_walk = _run(graph, query, cfg.with_(observe=True), walk_col)
        _assert_byte_identical(walk, on, dev_walk, dev_on)
        assert col.events == walk_col.events and col.events
        return off, on, dev_off, dev_on


class TestCollectorAttachment:
    def test_explicit_collector_without_observe_flag(self):
        g = _random_graph(26, 0.3, seed=11)
        col = TraceCollector()
        res = STMatchEngine(g, EngineConfig()).run(QUERIES["q3"], collector=col)
        assert res.report is not None
        validate_report(res.report)
        assert res.report["matches"] == res.matches

    def test_report_mirrors_result(self):
        g = _random_graph(26, 0.3, seed=11)
        cfg = EngineConfig(observe=True)
        res = STMatchEngine(g, cfg).run(QUERIES["q5"])
        rep = res.report
        assert rep["status"] == res.status
        assert rep["matches"] == res.matches
        assert rep["cycles"] == res.cycles
        assert rep["engine_steals"] == {
            "local": res.num_local_steals,
            "global": res.num_global_steals,
            "lost": res.num_lost_steals,
        }

    def test_tracer_detached_after_run(self):
        # a reused device must never feed a stale collector
        cfg = EngineConfig(observe=True)
        g = _random_graph(26, 0.3, seed=11)
        dev = VirtualDevice(cfg.device, device_id=0)
        STMatchEngine(g, cfg).run(QUERIES["q1"], device=dev)
        assert all(w.tracer is None for w in dev.warps)
