"""Self-test of the benchmark harness (not part of tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_bench.py -q
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(REPO / "src"), str(HERE)]

import compare  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
RUN = [sys.executable, str(HERE / "run.py")]


def run(*args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run([*RUN, *args], cwd=REPO, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory: pytest.TempPathFactory) -> dict:
    """Every workload once, shrunk, untraced and traced."""
    out = tmp_path_factory.mktemp("perf") / "smoke.json"
    proc = run("--smoke", "--trace", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(out.read_text())


def test_benchmark_json_limits() -> None:
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 <= m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


def test_smoke_result_schema(smoke: dict) -> None:
    assert {"nproc", "python", "numpy", "commit"} <= set(smoke["fingerprint"])
    runs = smoke["runs"]
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w, t) for w in workloads.WORKLOADS for t in (0, 1)}
    for r in runs:
        declared = SPEC["per_layer"] if r["trace"] else SPEC["end_to_end"]
        assert set(r["metrics"]) == {m["name"] for m in declared}, r["workload"]
        assert all(m["unit"] == r["metrics"][m["name"]]["unit"] for m in declared)
        assert r["attempted"] >= 1 and r["failed"] == 0, r["failures"]
        if not r["trace"]:
            assert all(m["value"] > 0 for m in r["metrics"].values()), r["metrics"]


def test_layers_show_only_where_they_work(smoke: dict) -> None:
    traced = {r["workload"]: r["metrics"] for r in smoke["runs"] if r["trace"]}
    for workload, metrics in traced.items():
        for name, m in metrics.items():
            if name.startswith(("parallel.", "scale.")) and workload != "shard_fanout":
                assert m["value"] == 0, (workload, name)
            if name.startswith("dynamic.") and workload != "serve_edits":
                assert m["value"] == 0, (workload, name)
    cold = traced["cold_first_query"]
    assert cold["pattern.plans_built"]["value"] == cold["codegen.kernels_compiled"]["value"] > 0
    assert traced["dense_count"]["pattern.plan_cache_hit_frac"]["value"] == 1.0


def test_driver_line_and_exit_code(tmp_path: Path) -> None:
    proc = run("--workload", "dense_count", "--seed", "5", "--seconds", "1", "--trace", "0",
               "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0

    # a deliberately wrong reference must fail the run
    wrong = json.loads((HERE / "expected.json").read_text())
    wrong["smoke"]["dense_count"]["dense-q5"]["matches"] += 1
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(wrong))
    proc = run("--workload", "dense_count", "--smoke", "--expected", str(path))
    last = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 1 and last["correct"] is False
    assert 0 < last["failed"] < last["attempted"]


def test_a_run_leaves_no_process_behind() -> None:
    """Pool workers and multiprocessing's resource tracker are stopped and
    waited for before the run exits, not orphaned by it."""
    proc = subprocess.Popen([*RUN, "--workload", "shard_fanout", "--smoke"], cwd=REPO,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                            start_new_session=True)
    out, _ = proc.communicate(timeout=300)
    assert proc.returncode == 0, out
    left = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == proc.pid:  # session id: the run was its leader
            left.append((stat.parent.name, fields[0]))
    assert not left


def test_timing_proxy_leaves_answers_identical() -> None:
    w = workloads.SparseEnum(seed=0, smoke=True, expected=None)
    w.setup()
    tracer = Tracer("test")
    for cell in w.cells[:8]:
        plain, _ = workloads.execute(cell)
        with tracer.span("pass"):
            traced, _ = workloads.execute(cell, tracer=tracer)
        assert repr(plain) == repr(traced), cell.key
    assert tracer.counts["candidates.frames"] > 0


def test_a_reported_percentile_has_ten_samples_beyond_it() -> None:
    for n in range(1, 600):
        _, kind = workloads.tail([float(i) for i in range(n)])
        if kind == "max":
            assert n < 40
        else:
            assert n * (100 - int(kind[1:])) / 100 >= 10, (n, kind)
    assert workloads.tail([float(i) for i in range(300)])[1] == "p95"


def test_span_self_time_subtracts_what_children_cover() -> None:
    tracer = Tracer("test")
    with tracer.span("outer") as outer:
        with tracer.span("inner"):
            pass
        tracer.add("many", seconds=0.0, calls=3)
    totals = tracer.self_seconds(outer["id"])
    assert set(totals) == {"outer", "inner", "many"}
    assert sum(totals.values()) == pytest.approx(outer["end"] - outer["start"])


def test_compare_verdicts(smoke: dict, tmp_path: Path, capsys: pytest.CaptureFixture[str]) -> None:
    a = tmp_path / "a.json"
    a.write_text(json.dumps(smoke))
    assert compare.main([str(a), str(a)]) == 0
    slower = copy.deepcopy(smoke)
    for r in slower["runs"]:
        if not r["trace"]:
            r["metrics"]["run_s"]["value"] *= 1.5
    b = tmp_path / "b.json"
    b.write_text(json.dumps(slower))
    assert compare.main([str(a), str(b)]) == 1
    assert "regressed" in capsys.readouterr().out
    moved = copy.deepcopy(smoke)
    for r in moved["runs"]:
        if r["trace"] and r["workload"] == "dense_count":
            r["metrics"]["virtgpu.sim_cycles"]["value"] += 1
    b.write_text(json.dumps(moved))
    assert compare.main([str(a), str(b)]) == 1
    assert "moved" in capsys.readouterr().out
