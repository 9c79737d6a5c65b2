"""Command-line entry point: ``python -m repro.bench <experiment>``.

Mirrors the paper artifact's run scripts: each sub-command regenerates
one table/figure and prints it.  ``all`` runs the full set.  Host
wall-clock is measured by ``benchmarks/perf``, not here.

Examples::

    python -m repro.bench table1
    python -m repro.bench table2a --queries q5 q7 q8 --budget 500000
    python -m repro.bench fig12 --datasets mico
    python -m repro.bench all --budget 200000
"""

from __future__ import annotations

import argparse
import sys
import time

from . import experiments

EXPERIMENTS = {
    "table1": lambda a: experiments.table1_datasets(scale=a.scale or "small"),
    "table2a": lambda a: experiments.table2a_edge_induced(
        datasets=a.datasets, queries=a.queries, budget=a.budget, scale=a.scale
    ),
    "table2b": lambda a: experiments.table2b_vertex_induced(
        datasets=a.datasets, queries=a.queries, budget=a.budget, scale=a.scale
    ),
    "table3": lambda a: experiments.table3_labeled(
        datasets=a.datasets, queries=a.queries, budget=a.budget, scale=a.scale
    ),
    "fig11": lambda a: experiments.fig11_multigpu(
        datasets=a.datasets, queries=a.queries, budget=a.budget
    ),
    "fig12": lambda a: experiments.fig12_ablation(
        datasets=a.datasets, queries=a.queries, budget=a.budget
    ),
    "fig13": lambda a: experiments.fig13_unroll_utilization(budget=a.budget),
    "codemotion": lambda a: experiments.codemotion_ablation(
        queries=a.queries, budget=a.budget
    ),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the STMatch paper's tables and figures.",
    )
    p.add_argument("experiment", choices=[*EXPERIMENTS, "all"],
                   help="which table/figure to regenerate")
    p.add_argument("--datasets", nargs="*", default=None,
                   help="dataset names (default: the experiment's paper set)")
    p.add_argument("--queries", nargs="*", default=None,
                   help="query names q1..q24 (default: the experiment's set)")
    p.add_argument("--budget", type=int, default=500_000,
                   help="per-cell match budget — the timeout stand-in "
                        "(default: 500000)")
    p.add_argument("--scale", default=None,
                   choices=["tiny", "small", "medium"],
                   help="dataset scale override")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        t0 = time.time()
        result = EXPERIMENTS[name](args)
        print(result.rendered)
        print(f"[{name}: {time.time() - t0:.1f}s wall]\n")
        if result.cells and not result.consistent():
            print(f"ERROR: {name}: systems disagree on match counts",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
