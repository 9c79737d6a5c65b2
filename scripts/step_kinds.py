#!/usr/bin/env python3
"""Where a kernel pass spends its steps: count and host µs per step kind.

    python3 scripts/step_kinds.py                       # all three tables
    python3 scripts/step_kinds.py dense_count --seed 3
    python3 scripts/step_kinds.py --ops sparse_enum     # NumPy-step calls instead
    python3 scripts/step_kinds.py --smoke               # shrunk workloads (seconds)
    PYTHONPATH=/path/to/other/checkout/src python3 scripts/step_kinds.py   # another commit

Runs one warm pass of ``benchmarks/perf``'s engine workloads with
``WarpTask.step`` wrapped from outside (nothing under ``src/`` knows),
and prints per workload

* the step kinds — ``leaf`` (a count-only last-level batch), ``frame``
  (any other ``compute_frame`` step), ``pop`` (slot advance / frame pop),
  ``acquire`` (root chunk or successful steal), ``idle-poll`` (a spin
  iteration that found nothing), ``retire``;
* ``loop`` — ``EventScheduler.run``'s wall time minus the time inside
  ``WarpTask.step``: the heap, hook and dispatch cost around the steps,
  in total and per step;
* how many UNROLL batches a parent slot is cut into before its leaf
  steps are done (the histogram the count-only leaves' plan-once /
  replay-per-batch split is sized from).

With ``--ops`` it instead wraps every public ``LevelOps`` method and
``CSRGraph.neighbors_batch`` the same way and prints calls and host µs
per call for each — inclusive: ``gather_slots`` and ``leaf_flipped``
contain the ``neighbors_batch`` calls they make.  That is the table a
step's fixed cost is read from (a frame step is a handful of these).
For the three count-only leaves it also prints ``plans``, the calls
that built a parent slot's plan rather than replayed one (read from
``LevelOps._memo`` around each call), and their mean µs.

It is the source of docs/PERFORMANCE.md § "Where the time goes"; the
timer adds ~0.3 µs per step, so read the columns against each other,
not against ``run.py``'s ``run_s``.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "benchmarks" / "perf"))
if not any(Path(p, "repro").is_dir() for p in sys.path if p):
    sys.path.insert(0, str(REPO / "src"))

from repro.core.kernel import WarpTask  # noqa: E402
from repro.core.levelops import LevelOps  # noqa: E402
from repro.graph.csr import CSRGraph  # noqa: E402
from repro.virtgpu.scheduler import EventScheduler, StepResult  # noqa: E402

ENGINE_WORKLOADS = ("dense_count", "sparse_enum", "cold_first_query")
LEAVES = ("leaf_gather_free", "leaf_flipped", "leaf_tally")


class StepMeter:
    """Wraps ``WarpTask.step``; classifies each step by what the task
    looked like going in (and, for an empty stack, coming out).  Also
    wraps ``EventScheduler.run``: its wall time minus the time spent in
    the step wrapper (the meter's own classifying included) is the
    ``loop`` row."""

    def __init__(self) -> None:
        self.count: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.batches: Counter[int] = Counter()  # batches per parent slot -> slots
        self._open: dict[int, tuple[object, int]] = {}  # task -> (parent array, batches so far)
        self.run_seconds = 0.0    # inside EventScheduler.run
        self.inside_seconds = 0.0  # inside the step wrapper
        self._step = WarpTask.step
        self._run = EventScheduler.run

    def __enter__(self) -> "StepMeter":
        meter = self

        def run(sched: EventScheduler[Any], max_steps: int | None = None) -> int:
            t0 = time.perf_counter()
            try:
                return meter._run(sched, max_steps)
            finally:
                meter.run_seconds += time.perf_counter() - t0

        def step(task: WarpTask) -> StepResult:
            t_in = time.perf_counter()
            kind = meter.kind_before(task)
            t0 = time.perf_counter()
            result = meter._step(task)
            dt = time.perf_counter() - t0
            if kind == "empty":
                kind = ("retire" if result is StepResult.DONE
                        else "acquire" if task.stack.depth else "idle-poll")
            meter.count[kind] += 1
            meter.seconds[kind] += dt
            meter.inside_seconds += time.perf_counter() - t_in
            return result

        WarpTask.step = step  # type: ignore[method-assign]
        EventScheduler.run = run  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: object) -> None:
        WarpTask.step = self._step  # type: ignore[method-assign]
        EventScheduler.run = self._run  # type: ignore[method-assign]
        for _, n in self._open.values():
            self.batches[n] += 1
        self._open.clear()

    def kind_before(self, task: WarpTask) -> str:
        st = task.state
        if st.stop_flag or task.stack.depth == 0:
            return "empty"
        f = task.stack.top
        if f.remaining_active() == 0:
            return "pop"
        if not (f.level + 1 == st.last_level and st.count_leaves):
            return "frame"
        parent = f.active_cand()
        seen = self._open.get(id(task))
        if seen is not None and seen[0] is parent:
            self._open[id(task)] = (parent, seen[1] + 1)
        else:  # a new parent slot (or the same one re-cut by a steal)
            if seen is not None:
                self.batches[seen[1]] += 1
            self._open[id(task)] = (parent, 1)
        return "leaf"


def _plan_of(ops: LevelOps, stack: object) -> object:
    """The leaf plan ``stack`` holds in ``ops`` (``None``: none)."""
    ent = ops._memo.get(id(stack))
    return None if ent is None else ent.plan


class CallMeter:
    """Wraps every public ``LevelOps`` method and
    ``CSRGraph.neighbors_batch``; counts calls and inclusive seconds,
    and for a count-only leaf, the calls that built a new plan."""

    def __init__(self) -> None:
        self.count: Counter[str] = Counter()
        self.seconds: Counter[str] = Counter()
        self.plans: Counter[str] = Counter()
        self.plan_seconds: Counter[str] = Counter()
        self._saved = [(LevelOps, name, fn) for name, fn in vars(LevelOps).items()
                       if callable(fn) and not name.startswith("_")]
        self._saved.append((CSRGraph, "neighbors_batch", CSRGraph.neighbors_batch))

    def __enter__(self) -> "CallMeter":
        for owner, name, fn in self._saved:
            setattr(owner, name, self._timed(name, fn))
        return self

    def __exit__(self, *exc: object) -> None:
        for owner, name, fn in self._saved:
            setattr(owner, name, fn)

    def _timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        if name in LEAVES:
            return self._leaf_timed(name, fn)
        count, seconds = self.count, self.seconds

        def timed(*args: Any, **kwargs: Any) -> Any:
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                seconds[name] += time.perf_counter() - t0
                count[name] += 1

        return timed

    def _leaf_timed(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        count, seconds = self.count, self.seconds
        plans, plan_seconds = self.plans, self.plan_seconds

        def timed(ops: LevelOps, warp: Any, stack: object, *args: Any) -> Any:
            before = _plan_of(ops, stack)
            t0 = time.perf_counter()
            try:
                return fn(ops, warp, stack, *args)
            finally:
                dt = time.perf_counter() - t0
                seconds[name] += dt
                count[name] += 1
                if _plan_of(ops, stack) is not before:
                    plans[name] += 1
                    plan_seconds[name] += dt

        return timed


def report_ops(name: str, meter: CallMeter) -> None:
    print(f"== {name}: NumPy-step calls (inclusive host time)")
    print(f"  {'call':<18} {'calls':>8} {'seconds':>8} {'us/call':>8} {'plans':>8} {'us/plan':>8}")
    for call, n in meter.count.most_common():
        s = meter.seconds[call]
        line = f"  {call:<18} {n:>8} {s:>8.3f} {s / n * 1e6:>8.1f}"
        planned = meter.plans[call]
        if call in LEAVES:
            per_plan = f"{meter.plan_seconds[call] / planned * 1e6:>8.1f}" if planned else ""
            line += f" {planned:>8} {per_plan:>8}"
        print(line)


def report(name: str, meter: StepMeter) -> None:
    total_n, total_s = sum(meter.count.values()), sum(meter.seconds.values())
    print(f"== {name}: {total_n} steps, {total_s:.3f} s inside WarpTask.step")
    print(f"  {'kind':<10} {'steps':>8} {'share':>7} {'seconds':>8} {'us/step':>8}")
    for kind, n in meter.count.most_common():
        s = meter.seconds[kind]
        print(f"  {kind:<10} {n:>8} {n / total_n:>7.1%} {s:>8.3f} {s / n * 1e6:>8.1f}")
    loop_s = meter.run_seconds - meter.inside_seconds
    print(f"  {'loop':<10} {total_n:>8} {'':>7} {loop_s:>8.3f} {loop_s / total_n * 1e6:>8.1f}"
          "   (EventScheduler.run outside the steps)")
    slots = sum(meter.batches.values())
    if slots:
        mean = sum(k * v for k, v in meter.batches.items()) / slots
        print(f"  leaf batches per parent slot: {slots} slots, mean {mean:.2f}")
        edges = [(1, 1), (2, 2), (3, 4), (5, 8), (9, 16), (17, 10**9)]
        for lo, hi in edges:
            n = sum(v for k, v in meter.batches.items() if lo <= k <= hi)
            label = f"{lo}" if lo == hi else f"{lo}-{hi}" if hi < 10**9 else f"{lo}+"
            print(f"    {label:>6} batches: {n:>7} slots ({n / slots:.1%})")


def main() -> None:
    from workloads import WORKLOADS  # benchmarks/perf

    names = ENGINE_WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", metavar="workload",
                        help=f"any of {', '.join(names)} (default: all three)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", action="store_true",
                        help="calls and us per call of each LevelOps step instead")
    parser.add_argument("--smoke", action="store_true",
                        help="run.py --smoke's shrunk workloads (a few seconds)")
    args = parser.parse_args()
    if set(args.workloads) - set(names):
        parser.error(f"workloads are {', '.join(names)}")
    for name in args.workloads or names:
        workload = WORKLOADS[name](args.seed, args.smoke, None)
        workload.setup()
        meter = CallMeter() if args.ops else StepMeter()
        try:
            with meter:
                workload.run_pass()
        finally:
            workload.close()
        if isinstance(meter, CallMeter):
            report_ops(name, meter)
        else:
            report(name, meter)


if __name__ == "__main__":
    main()
