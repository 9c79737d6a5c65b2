"""Schedule exploration: count identity + zero HB findings per schedule.

Tier-1 runs a small fixed-seed subset; the full acceptance grid
(q1–q6 × {unlabeled, labeled} × unroll {1, 4}) is marked ``race`` (and
``slow``) so CI can run it as its own leg.
"""

from __future__ import annotations

import io
import json
from collections import Counter

import numpy as np
import pytest

from repro.analysis.cli import main
from repro.analysis.races import ProtocolLog, check_protocol, explore_schedules
from repro.core.config import EngineConfig
from repro.core.multi_gpu import run_multi_gpu
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat
from repro.pattern.motifs import QUERIES
from repro.pattern.query import QueryGraph
from repro.virtgpu.device import DeviceConfig
from tests.executors import log_events, on_both_executors


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki_vote", scale="tiny")


def labeled_variant(query: QueryGraph, graph) -> QueryGraph:
    """Cycle the query's labels over the graph's most common ones so
    labeled cells keep nonzero counts where the topology allows."""
    common = [l for l, _ in Counter(graph.labels.tolist()).most_common(3)]
    labels = [common[i % len(common)] for i in range(query.size)]
    return QueryGraph(adj=query.adj, labels=np.asarray(labels, dtype=np.int64),
                      name=f"{query.name}+L", directed=query.directed)


# -- tier-1 fixed-seed subset ----------------------------------------------


def test_explorer_count_identity_and_clean_hb(wiki):
    res = explore_schedules(wiki, QUERIES["q2"], max_schedules=3)
    assert res.ok, res.render()
    assert res.num_schedules == 3
    assert res.distinct_schedules >= 2, "seeded tiebreak produced no new order"
    assert all(o.matches == res.golden for o in res.outcomes)
    assert res.outcomes[0].seed is None and res.outcomes[1].seed == 0


def test_explorer_covers_global_steals():
    """A workload where the global board actually fires, so the explorer
    exercises the deposit→take edge it claims to check."""
    g = rmat(7, 4, seed=5)
    cfg = EngineConfig(device=DeviceConfig(num_blocks=3, warps_per_block=1),
                       chunk_size=1, local_steal=False)
    res = explore_schedules(g, QUERIES["q2"], config=cfg, max_schedules=2)
    assert res.ok, res.render()
    assert res.outcomes[0].global_steals >= 1
    assert all(o.matches == res.golden for o in res.outcomes)


def test_explorer_respects_explicit_golden(wiki):
    res = explore_schedules(wiki, QUERIES["q2"], max_schedules=1, golden=1)
    assert not res.ok
    assert {d.rule for d in res.violations} == {"X505"}


def test_explorer_rejects_zero_schedules(wiki):
    with pytest.raises(ValueError):
        explore_schedules(wiki, QUERIES["q2"], max_schedules=0)


# -- acceptance grid (race marker) -----------------------------------------


@pytest.mark.race
@pytest.mark.slow
@pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "q6"])
def test_race_grid_query(name, wiki):
    labeled_graph = load_dataset("wiki_vote", scale="tiny", labeled=True)
    for unroll in (1, 4):
        for labeled in (False, True):
            graph = labeled_graph if labeled else wiki
            query = labeled_variant(QUERIES[name], labeled_graph) if labeled \
                else QUERIES[name]
            cfg = EngineConfig(
                device=DeviceConfig(num_blocks=2, warps_per_block=2),
                chunk_size=1, unroll=unroll,
            )
            res = explore_schedules(graph, query, config=cfg, max_schedules=2,
                                    subject=f"race[{query.name} unroll={unroll}]")
            assert res.ok, res.render()
            assert all(o.matches == res.golden for o in res.outcomes), res.render()


# -- coordinator protocol log, end to end ----------------------------------


def test_multi_gpu_protocol_log_clean(wiki):
    log = ProtocolLog()
    res = run_multi_gpu(wiki, QUERIES["q1"], num_devices=3, protocol_log=log)
    assert res.ok
    assert len(log.by_kind("shard_dispatch")) == 3
    assert len(log.by_kind("shard_result")) == 3
    assert not list(check_protocol(log))


def test_multi_gpu_protocol_log_same_on_the_worker_pool(wiki):
    # the faulted re-queue log's twin is test_parallel_identity's
    # test_requeue_protocol_log_identity
    logs = []

    def run(cfg):
        logs.append(ProtocolLog())
        return run_multi_gpu(wiki, QUERIES["q1"], num_devices=3, config=cfg,
                             protocol_log=logs[-1])

    assert on_both_executors(run).ok
    assert log_events(logs[1]) == log_events(logs[0])
    assert not list(check_protocol(logs[1]))


def test_multi_gpu_protocol_log_faulted_recovery_clean(wiki):
    clean = run_multi_gpu(wiki, QUERIES["q1"], num_devices=3)
    fp = FaultPlan(events=tuple(
        FaultEvent(FaultKind.DEVICE_FAIL, device=0, attempt=a, at_cycle=10)
        for a in range(4)
    ))
    log = ProtocolLog()
    res = run_multi_gpu(wiki, QUERIES["q1"], num_devices=3, fault_plan=fp,
                        max_retries=3, protocol_log=log)
    assert res.countable and res.matches == clean.matches
    assert res.num_requeued == 1
    assert len(log.by_kind("shard_requeue")) == 1
    # the real runtime's ordering passes its own race rules
    rep = check_protocol(log)
    assert not list(rep), rep.render()


# -- CLI ``race`` subcommand -----------------------------------------------


def test_cli_race_clean_exit_zero():
    out = io.StringIO()
    rc = main(["race", "q2", "--max-schedules", "2",
               "--blocks", "2", "--warps", "2"], out=out)
    assert rc == 0
    assert "all clean" in out.getvalue()
    assert "clean" in out.getvalue().splitlines()[-1]


def test_cli_race_json_document():
    out = io.StringIO()
    rc = main(["race", "q2", "--max-schedules", "2",
               "--blocks", "2", "--warps", "2", "--json"], out=out)
    assert rc == 0
    doc = json.loads(out.getvalue())
    assert doc["command"] == "race" and doc["status"] == "clean"
    (wl,) = doc["workloads"]
    assert wl["ok"] and wl["num_schedules"] == 2
    assert all(s["matches"] == wl["golden"] for s in wl["schedules"])


def test_cli_race_unknown_pattern_exit_two(capsys):
    assert main(["race", "nope"], out=io.StringIO()) == 2
    assert "unknown pattern" in capsys.readouterr().err


def test_cli_race_bad_schedule_count_exit_two(capsys):
    assert main(["race", "q2", "--max-schedules", "0"], out=io.StringIO()) == 2


def test_cli_lint_json_document():
    out = io.StringIO()
    rc = main(["lint", "q3", "--json"], out=out)
    assert rc == 0
    doc = json.loads(out.getvalue())
    assert doc["command"] == "lint" and doc["status"] == "clean"
    (subj,) = doc["subjects"]
    assert subj["subject"] == "plan[q3]"
    assert subj["summary"]["errors"] == 0


def test_cli_rules_lists_concurrency_rules():
    out = io.StringIO()
    assert main(["rules"], out=out) == 0
    text = out.getvalue()
    for rid in ("X507", "X508", "X509", "X510",
                "L305", "L306", "L307", "L308"):
        assert rid in text
