"""``run.py compare A.json B.json`` — is B worse than A?

Each file is what ``run.py --out`` wrote: a set of one or more runs per
workload.  One row per (workload, end-to-end metric) gives both medians
with their quartiles, B's relative change with A as the base, the bound
from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``regressed``   it is worse by more than the bound
``unresolved``  the run-to-run spread (quartile distance over median, the
                wider of the two sets) exceeds the bound, so the medians
                cannot settle it — unless every run of B reads better (or,
                for a regression, worse) than every run of A

Simulated counts have no bound: they must be equal in every run of both
sets (``moved`` otherwise), and so must the number of failed operations
be zero.  Exit status 1 if any row is ``regressed`` or ``moved``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

#: per-layer counts of the simulated device: exact-repeat, seed-independent
EXACT = ("virtgpu.sim_cycles", "virtgpu.set_ops", "virtgpu.set_op_elems", "kernel.steps",
         "candidates.frames")


def load(path: str) -> dict[str, list[dict[str, Any]]]:
    """Runs of one file, by workload."""
    by_workload: dict[str, list[dict[str, Any]]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def values(runs: list[dict[str, Any]], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """The verdict and B's relative worsening (positive = worse, base A)."""
    (a1, am, a3), (b1, bm, b3) = quartiles(a), quartiles(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm)
    b_all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    b_all_better = max(sign * x for x in b) < min(sign * x for x in a)
    if worse_by > bound:
        return ("regressed" if spread <= bound or b_all_worse else "unresolved"), worse_by
    if spread > bound and not b_all_better:
        return "unresolved", worse_by
    return "ok", worse_by


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        raise SystemExit("usage: run.py compare A.json B.json")
    a_runs, b_runs = load(argv[0]), load(argv[1])
    bad = 0
    print(f"{'workload':18s} {'metric':20s} {'A q1/median/q3':>34s} {'B q1/median/q3':>34s} "
          f"{'B vs A':>8s} {'bound':>6s}  verdict")
    for workload in (w["name"] for w in SPEC["workloads"]):
        a_all, b_all = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a_all or not b_all:
            continue
        for m in SPEC["end_to_end"]:
            a, b = values(a_all, m["name"]), values(b_all, m["name"])
            if not a or not b:
                continue
            word, worse_by = verdict(a, b, m["better"], m["bound"])
            change = worse_by if m["better"] == "lower" else -worse_by
            fmt = lambda q: "/".join(f"{x:.5g}" for x in q)  # noqa: E731
            print(f"{workload:18s} {m['name']:20s} {fmt(quartiles(a)):>34s} "
                  f"{fmt(quartiles(b)):>34s} {change:>+8.1%} {m['bound']:>6.2f}  {word}"
                  f"  (n={len(a)}/{len(b)}, {m['unit']})")
            bad += word == "regressed"
        for name in EXACT:
            seen = set(values(a_all, name)) | set(values(b_all, name))
            if seen:
                word = "ok" if len(seen) == 1 else "moved"
                print(f"{workload:18s} {name:20s} {'exact: ' + ', '.join(map(repr, sorted(seen)))}"
                      f"  {word}")
                bad += word == "moved"
        failed = sum(r["failed"] for r in a_all + b_all)
        attempted = sum(r["attempted"] for r in a_all + b_all)
        word = "ok" if failed == 0 else "regressed"
        print(f"{workload:18s} {'failed_frac':20s} {failed} of {attempted} operations  {word}")
        bad += failed != 0
    return 1 if bad else 0
