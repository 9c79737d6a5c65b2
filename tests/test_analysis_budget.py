"""Resource linter: the budget math and the B-rule diagnostics.

The footprint formulas mirror the engine's own allocation in
``STMatchEngine._allocate_fixed_memory`` (Sec. VIII-A): shared memory
holds Csize/iter/uiter per warp plus the Fig. 9b arrays; global memory
holds the candidate stack ``C = NUM_SETS × UNROLL × slot × NUM_WARPS``.
"""

from __future__ import annotations

import pytest

from repro.analysis.budget import estimate_budget, lint_budget, max_fitting_unroll
from repro.core.config import EngineConfig
from repro.graph.generators import powerlaw_cluster
from repro.pattern.plan import build_plan
from repro.pattern.query import QueryGraph
from repro.virtgpu.device import DeviceConfig


@pytest.fixture(scope="module")
def c3_plan():
    return build_plan(QueryGraph.clique(3, name="clique3"))


def small_device(**kw) -> DeviceConfig:
    return DeviceConfig(**kw)


def test_estimate_matches_engine_accounting(c3_plan):
    cfg = EngineConfig()  # unroll=8, max_degree=4096, 8x8 device
    est = estimate_budget(c3_plan, cfg)
    n, k, dev = 3, 3, cfg.device
    control = n * cfg.unroll * 4 + k * 2 * 4
    assert est.control_bytes_per_warp == control
    assert est.encoding_bytes == (k + 1) * 4 + n * 4 * 4
    assert est.shared_bytes_per_block == control * dev.warps_per_block + est.encoding_bytes
    assert est.candidate_bytes_total == n * cfg.unroll * cfg.max_degree * 4 * dev.num_warps
    assert est.shared_bytes_per_block <= est.shared_capacity
    assert 0.0 < est.shared_utilization < 1.0


def test_graph_caps_slot_size_and_adds_csr_bytes(c3_plan):
    g = powerlaw_cluster(60, m=3, seed=1)
    cfg = EngineConfig()
    est = estimate_budget(c3_plan, cfg, g)
    assert est.slot_elems == min(cfg.max_degree, g.max_degree())
    assert est.graph_bytes >= int(g.indices.nbytes + g.indptr.nbytes)
    assert est.global_bytes_total == est.candidate_bytes_total + est.graph_bytes


def test_live_profile_counts_lifted_lifetimes():
    # vertex-induced q1 carries lifted sets that stay live across levels
    from repro.pattern.motifs import QUERIES

    plan = build_plan(QUERIES["q1"], vertex_induced=True)
    est = estimate_budget(plan, EngineConfig())
    assert len(est.live_per_level) == plan.size
    assert est.peak_live_sets == max(est.live_per_level)
    assert est.peak_live_sets >= 2
    assert est.peak_live_bytes_per_warp == est.peak_live_sets * est.unroll * est.slot_elems * 4


# -- B-rules ------------------------------------------------------------------


def test_shared_overflow_b401(c3_plan):
    cfg = EngineConfig(device=small_device(shared_mem_per_block=512))
    rep = lint_budget(c3_plan, cfg)
    (d,) = rep.by_rule("B401")
    assert rep.has_errors
    assert "shared memory" in d.message
    # hint proposes the largest unroll that fits: (12u + 24)*8 + 64 <= 512 -> 2
    assert max_fitting_unroll(c3_plan, cfg) == 2
    assert "unroll from 8 to 2" in (d.hint or "")


def test_shared_pressure_b402(c3_plan):
    cfg = EngineConfig(device=small_device(shared_mem_per_block=1500))
    rep = lint_budget(c3_plan, cfg)
    assert not rep.has_errors
    assert rep.by_rule("B402")
    assert rep.by_rule("B402")[0].severity.name == "WARNING"


def test_global_overflow_b403(c3_plan):
    cfg = EngineConfig(device=small_device(global_mem_bytes=1024 * 1024))
    rep = lint_budget(c3_plan, cfg)
    (d,) = rep.by_rule("B403")
    assert "OOM" in d.message


def test_degree_spill_b404(c3_plan):
    g = powerlaw_cluster(60, m=3, seed=1)
    cfg = EngineConfig(max_degree=2)
    rep = lint_budget(c3_plan, cfg, g)
    (d,) = rep.by_rule("B404")
    assert str(g.max_degree()) in d.message


def test_peak_pressure_note_always_present(c3_plan):
    rep = lint_budget(c3_plan, EngineConfig())
    assert rep.by_rule("B405")
    assert not rep.has_errors


def test_default_config_fits_all_builtin_plans():
    from repro.pattern.motifs import QUERIES

    cfg = EngineConfig()
    for name in ("q5", "q13", "q24"):
        rep = lint_budget(build_plan(QUERIES[name]), cfg, subject=name)
        assert not rep.has_errors, rep.render()


def test_max_fitting_unroll_zero_when_nothing_fits(c3_plan):
    cfg = EngineConfig(device=small_device(shared_mem_per_block=64))
    assert max_fitting_unroll(c3_plan, cfg) == 0


def test_max_fitting_unroll_full_when_roomy(c3_plan):
    cfg = EngineConfig()
    assert max_fitting_unroll(c3_plan, cfg) == cfg.unroll


def test_split_label_program_costs_more_shared_memory():
    import numpy as np

    from repro.codemotion.labeled import split_labeled_program
    from repro.pattern.motifs import QUERIES

    q = QUERIES["q13"]
    labels = np.asarray([i % 2 for i in range(q.size)], dtype=np.int64)
    lq = QueryGraph(adj=q.adj, labels=labels, name="q13L2")
    plan = build_plan(lq)
    split = split_labeled_program(plan.program, plan.query)
    cfg = EngineConfig()
    merged_est = estimate_budget(plan, cfg)
    split_est = estimate_budget(split, cfg)
    assert split_est.num_sets > merged_est.num_sets
    assert split_est.shared_bytes_per_block > merged_est.shared_bytes_per_block
    # the B401 hint on an overflowing split program proposes label merging
    tight = EngineConfig(
        device=small_device(shared_mem_per_block=merged_est.shared_bytes_per_block)
    )
    rep = lint_budget(split, tight)
    (d,) = rep.by_rule("B401")
    assert "Fig. 10b" in (d.hint or "")
