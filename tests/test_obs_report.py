"""Report schema, exporters, aggregation, and reprs.

Everything that *consumes* observability data is pinned here:

* ``validate_report`` rejects malformed reports with a path-qualified
  ``ValueError`` (so CI failures say *where*);
* the JSONL and Chrome ``trace_event`` exporters emit parseable files
  from a ``keep_events=True`` run;
* ``aggregate_reports`` sums steal totals and embeds children;
* result ``__repr__``\\ s carry status/detail, so a failing pytest
  assertion names the failure instead of dumping counter soup.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro import EngineConfig, STMatchEngine
from repro.core.counters import RunResult
from repro.core.distributed import DistributedResult
from repro.core.multi_gpu import MultiGpuResult
from repro.graph import CSRGraph
from repro.obs import (
    SCHEMA_VERSION,
    TraceCollector,
    aggregate_reports,
    validate_report,
    write_chrome_trace,
    write_jsonl,
)
from repro.pattern import QUERIES


def _small_graph() -> CSRGraph:
    rng = np.random.default_rng(3)
    mask = rng.random((24, 24)) < 0.3
    edges = [(i, j) for i in range(24) for j in range(i + 1, 24) if mask[i, j]]
    return CSRGraph.from_edges(24, edges)


@pytest.fixture(scope="module")
def observed_run():
    col = TraceCollector(keep_events=True)
    res = STMatchEngine(_small_graph(), EngineConfig()).run(
        QUERIES["q5"], collector=col
    )
    assert res.report is not None
    return res, col


class TestValidation:
    def test_good_report_validates(self, observed_run):
        res, _col = observed_run
        validate_report(res.report)

    def test_wrong_schema_version_rejected(self, observed_run):
        res, _col = observed_run
        bad = copy.deepcopy(res.report)
        bad["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            validate_report(bad)

    def test_missing_key_rejected_with_path(self, observed_run):
        res, _col = observed_run
        bad = copy.deepcopy(res.report)
        del bad["steals"]
        with pytest.raises(ValueError, match=r"report.*steals"):
            validate_report(bad)

    def test_malformed_warp_row_rejected(self, observed_run):
        res, _col = observed_run
        bad = copy.deepcopy(res.report)
        del bad["warps"][0]["clock"]
        with pytest.raises(ValueError, match="warps"):
            validate_report(bad)

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError):
            validate_report(["not", "a", "report"])  # type: ignore[arg-type]


class TestExporters:
    def test_jsonl_export(self, observed_run, tmp_path):
        _res, col = observed_run
        assert col.events, "keep_events=True run recorded no events"
        path = write_jsonl(col, tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema_version"] == SCHEMA_VERSION
        assert header["num_events"] == len(lines) - 1 == len(col.events)
        kinds = {json.loads(ln)["kind"] for ln in lines[1:]}
        assert "set_op" in kinds

    def test_chrome_trace_export(self, observed_run, tmp_path):
        _res, col = observed_run
        path = write_chrome_trace(col, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        events = payload["traceEvents"]
        assert payload["otherData"]["schema_version"] == SCHEMA_VERSION
        # per-warp thread metadata plus the actual events
        assert any(e["ph"] == "M" for e in events)
        durations = [e for e in events if e["ph"] == "X"]
        assert durations
        assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in durations)

    def test_event_cap_drops_loudly(self):
        col = TraceCollector(keep_events=True, max_events=10)
        STMatchEngine(_small_graph(), EngineConfig()).run(
            QUERIES["q5"], collector=col
        )
        assert len(col.events) == 10
        assert col.dropped_events > 0


class TestAggregation:
    def test_aggregate_sums_and_embeds(self, observed_run):
        res, _col = observed_run
        child = res.report
        agg = aggregate_reports(
            "multi_gpu", [child, child], status="ok",
            matches=2 * res.matches, sim_ms=res.sim_ms,
            extra={"num_devices": 2, "num_requeued": 0},
        )
        validate_report(agg)
        assert agg["kind"] == "multi_gpu"
        assert agg["num_devices"] == 2
        assert len(agg["children"]) == 2
        for key, total in agg["steals"].items():
            assert total == 2 * child["steals"][key], key
        assert agg["cycles"] == child["cycles"]  # max, not sum

    def test_unknown_kind_rejected(self, observed_run):
        res, _col = observed_run
        with pytest.raises(ValueError, match="kind"):
            aggregate_reports("galaxy", [res.report], status="ok",
                              matches=0, sim_ms=0.0)


class TestResultReprs:
    def test_run_result_repr_carries_status_and_detail(self):
        res = RunResult(system="stmatch", status="oom",
                        detail="stack alloc of 9 GiB at level 3")
        text = repr(res)
        assert "status='oom'" in text
        assert "stack alloc of 9 GiB" in text

    def test_run_result_repr_flags_report(self, observed_run):
        res, _col = observed_run
        assert "report=<attached>" in repr(res)
        assert "status='ok'" in repr(res)

    def test_multigpu_repr(self):
        res = MultiGpuResult(num_devices=3, per_device=[], matches=7,
                             sim_ms=1.25, status="failed",
                             detail="shard 2: timeout (watchdog)")
        text = repr(res)
        assert "status='failed'" in text
        assert "shard 2: timeout" in text

    def test_distributed_repr(self):
        res = DistributedResult(num_machines=2, gpus_per_machine=2,
                                matches=0, sim_ms=0.5, machines=[],
                                task_costs_ms=[], num_steals=0,
                                status="failed", num_machine_failures=1,
                                detail="machine 1 died mid-task")
        text = repr(res)
        assert "status='failed'" in text
        assert "machine 1 died" in text
        assert "num_machine_failures=1" in text
