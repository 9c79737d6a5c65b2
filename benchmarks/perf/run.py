#!/usr/bin/env python3
"""One end-to-end + per-layer host-time benchmark for this repository.

    python3 benchmarks/perf/run.py                      # all six workloads
    python3 benchmarks/perf/run.py --trace              # ... plus the per-layer pass
    python3 benchmarks/perf/run.py --workload dense_count --seed 3 --seconds 10 --trace 0
    python3 benchmarks/perf/run.py --repeat 10 --out A.json
    python3 benchmarks/perf/run.py compare A.json B.json

With ``--workload`` the workload runs in this process (already a fresh
one: cold caches, its own ``VmHWM``) and the last line of standard output
is the JSON object ``BENCHMARK.json``'s contract asks for.  Without it
this process only drives: one child per workload, one after the other.
End-to-end numbers always come from an untraced run; ``--trace`` makes a
separate run whose spans give the per-layer numbers.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}

#: a CI matrix leg must not change what is measured
SCRUBBED_ENV = ("REPRO_EXECUTOR", "REPRO_NUM_WORKERS", "REPRO_CODEGEN", "REPRO_GRAPH_BACKEND")
SETUP_REPEATS = 3
#: spans that are the harness's own time, not a layer's
HARNESS_SPANS = ("pass", "cell")


def peak_rss_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def adopt_orphans() -> None:
    """Make this process the parent of any descendant whose own parent
    exits first (``PR_SET_CHILD_SUBREAPER``), so ``stop_children`` sees it."""
    import ctypes

    ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)


def child_pids() -> list[int]:
    """Children of this process that are not reaped yet, zombies too."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path("/proc", entry, "stat").read_text()
            except OSError:
                continue  # gone between listdir and read
            if int(stat.rpartition(")")[2].split()[1]) == me:
                pids.append(int(entry))
    return pids


def stop_children(grace: float = 10.0) -> None:
    """Leave no process behind: returns once every child has ended *and*
    been waited for.  ``shutdown_pools`` does not wait for its workers, and
    multiprocessing's resource tracker (started by the first shared-memory
    export) lives until its pipe closes, which without this is at our own
    exit: it then outlives the run as an orphan."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes the pipe, waits for the tracker to end
    deadline = time.monotonic() + grace
    while pids := child_pids():
        for pid in pids:
            try:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, os.WNOHANG)
            except (ChildProcessError, ProcessLookupError):
                pass  # reaped by the thread that owns it
        time.sleep(0.005)


def fingerprint() -> dict[str, Any]:
    import numpy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a checkout without git metadata
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


# ---------------------------------------------------------------------------
# one workload, in this process
# ---------------------------------------------------------------------------


def timed_passes(workload: Any, seconds: float) -> list[Any]:
    """Passes over the workload's operation list until ``seconds`` are
    used up (another pass would overrun), never fewer than its minimum."""
    passes: list[Any] = []
    t0 = time.perf_counter()
    while True:
        gc.collect()
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - t0
        if len(passes) >= workload.min_passes and elapsed + elapsed / len(passes) > seconds:
            return passes


def end_to_end_metrics(setups: list[float],
                       passes: list[Any]) -> tuple[dict[str, float], dict[str, Any]]:
    """Every statistic is taken per pass and the median over passes reported."""
    from workloads import percentile, tail

    p50s, tails, kinds = [], [], set()
    for p in passes:
        ms = [op.seconds * 1e3 for op in p.ops]
        p50s.append(percentile(ms, 50))
        value, kind = tail(ms)
        tails.append(value)
        kinds.add(kind)
    metrics = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.wall for p in passes),
        "throughput_rps": statistics.median(len(p.ops) / p.wall for p in passes),
        "latency_p50_ms": statistics.median(p50s),
        "latency_tail_ms": statistics.median(tails),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setups": len(setups), "passes": len(passes), "ops_per_pass": len(passes[0].ops),
               "tail": "/".join(sorted(kinds)), "pass_s": [round(p.wall, 4) for p in passes]}
    return metrics, samples


def per_layer_metrics(workload: Any, tracer: Any, root: int, untraced: Any, traced: Any,
                      extras: dict[str, float]) -> dict[str, float]:
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, seconds in tracer.self_seconds(root).items():
        metric = "trace.unattributed_s" if name in HARNESS_SPANS else f"{name}_s"
        metrics[metric] += seconds
    for span in tracer.subtree(root):
        if span["name"] == "cell":
            metrics[f"cell.{span['group']}.s"] += span["end"] - span["start"]
    counts = tracer.counts
    for name in ("pattern.plans_built", "codegen.kernels_compiled", "codegen.source_bytes",
                 "candidates.frames"):
        metrics[name] = counts.get(name, 0.0)
    if counts.get("pattern.plan_lookups"):
        metrics["pattern.plan_cache_hit_frac"] = (
            1.0 - counts["pattern.plans_built"] / counts["pattern.plan_lookups"])
    if counts.get("codegen.lookups"):
        metrics["codegen.cache_hit_frac"] = (
            1.0 - counts["codegen.kernels_compiled"] / counts["codegen.lookups"])
    if metrics["candidates.frames"]:
        metrics["candidates.us_per_frame"] = (
            metrics["candidates.compute_frame_s"] / metrics["candidates.frames"] * 1e6)
    metrics["graph.load_s"] = workload.graph_load_s
    metrics["trace.overhead_frac"] = traced.wall / untraced.wall - 1.0
    metrics.update(traced.info)
    metrics.update(extras)
    unknown = sorted(set(metrics) - set(PER_LAYER))
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 expected: Path) -> dict[str, Any]:
    """Set up, measure (or trace) and check one workload; the run record."""
    import workloads
    from spans import Tracer

    references = json.loads(expected.read_text())["smoke" if smoke else "full"]
    workload = workloads.WORKLOADS[name](seed, smoke, references.get(name, {}))
    if smoke:
        workload.min_passes, seconds = 2, 0.0
    try:
        setups = []
        for _ in range(1 if smoke or trace else SETUP_REPEATS):
            t0 = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - t0)
        ops = list(workload.setup_checks)
        if trace:
            untraced = workload.run_pass()
            tracer = Tracer(name)
            with tracer.span("pass") as root:
                traced = workload.run_pass(tracer)
            extras, checks = workload.layer_extras(untraced, traced)
            metrics = per_layer_metrics(workload, tracer, root["id"], untraced, traced, extras)
            units = PER_LAYER
            samples: dict[str, Any] = {"passes": 1, "spans": len(tracer.spans),
                                       "attributed_frac": 1.0 - metrics["trace.unattributed_s"]
                                       / (root["end"] - root["start"])}
            ops += untraced.ops + traced.ops + checks
            tracer.write(HERE / "out" / f"trace-{name}.json")
        else:
            passes = timed_passes(workload, seconds)
            metrics, samples = end_to_end_metrics(setups, passes)
            units = END_TO_END
            ops += [op for p in passes for op in p.ops]
    finally:
        workload.close()
    failures = [op.failed for op in ops if op.failed]
    return {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "attempted": len(ops), "failed": len(failures), "failures": failures[:20],
        "samples": samples,
        "metrics": {k: {"value": v, "unit": units[k]["unit"]} for k, v in metrics.items()},
    }


def print_run(run: dict[str, Any]) -> None:
    kind = "per-layer (traced)" if run["trace"] else "end-to-end"
    print(f"== {run['workload']}  seed={run['seed']}  {kind}  samples={run['samples']}")
    for name, m in run["metrics"].items():
        if m["value"] or not run["trace"]:
            print(f"  {name:36s} {m['value']:>16.6g} {m['unit']}")
    failed_frac = run["failed"] / run["attempted"]
    print(f"  {'failed_frac':36s} {failed_frac:>16.6g} ratio  "
          f"({run['failed']} of {run['attempted']} operations)")
    for why in run["failures"]:
        print(f"  FAILED {why}")


def driver_line(run: dict[str, Any]) -> str:
    return json.dumps({"correct": run["failed"] == 0, "attempted": run["attempted"],
                       "failed": run["failed"], "metrics": run["metrics"]})


# ---------------------------------------------------------------------------
# all workloads: one child each
# ---------------------------------------------------------------------------


def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
              expected: Path) -> dict[str, Any]:
    record = HERE / "out" / f"run-{name}-{os.getpid()}.json"
    record.parent.mkdir(exist_ok=True)
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(record),
           "--expected", str(expected)]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=REPO, stdout=subprocess.PIPE, text=True)
    print(proc.stdout.rpartition("\n{")[0], flush=True)  # all but the driver's JSON line
    if not record.exists():
        raise SystemExit(f"{name}: child exited {proc.returncode} without a result")
    run: dict[str, Any] = json.loads(record.read_text())["runs"][0]
    record.unlink()
    return run


def write_out(path: Path, runs: list[dict[str, Any]]) -> None:
    path.write_text(json.dumps({"fingerprint": fingerprint(), "runs": runs}, indent=1))


def record_expected() -> None:
    import workloads

    out = {"schema": 1, **fingerprint()}
    for smoke in (True, False):
        section = out["smoke" if smoke else "full"] = {}
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(0, smoke, None)
            try:
                workload.setup()
                workload.run_pass()
            finally:
                workload.close()
            section[name] = dict(sorted(workload.recorded.items()))
            print(f"recorded {len(section[name])} references for {name} (smoke={smoke})")
    (HERE / "expected.json").write_text(json.dumps(out, indent=1) + "\n")


def measure(args: argparse.Namespace) -> int:
    if args.record_expected:
        record_expected()
        return 0
    if args.workload:
        run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke,
                           args.expected)
        print_run(run)
        if args.out:
            write_out(args.out, [run])
        print(driver_line(run))
        return 0 if run["failed"] == 0 else 1

    runs = []
    for rep in range(args.repeat):
        for name in args.workloads:
            for trace in (False, True) if args.trace else (False,):
                runs.append(run_child(name, args.seed + rep, args.seconds, trace, args.smoke,
                                      args.expected))
    if args.out:
        write_out(args.out, runs)
    failed = sum(r["failed"] for r in runs)
    print(f"{len(runs)} run(s), {failed} failed operation(s)")
    return 0 if failed == 0 else 1


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="run this one workload in-process (the BENCHMARK.json contract)")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOAD_NAMES, default=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true", help="shrunk workloads, < 30 s in total")
    ap.add_argument("--repeat", type=int, default=1, help="runs per workload, at seed, seed+1, ...")
    ap.add_argument("--out", type=Path, help="write every run record to this JSON file")
    ap.add_argument("--expected", type=Path, default=HERE / "expected.json",
                    help="reference answers to check against (default: the checked-in file)")
    ap.add_argument("--record-expected", action="store_true",
                    help="re-record expected.json from this commit (seed 0) and exit")
    args = ap.parse_args(argv)

    for var in SCRUBBED_ENV:
        os.environ.pop(var, None)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no src/repro under {REPO}: nothing to measure", file=sys.stderr)
        return 2
    sys.path[:0] = [str(REPO / "src"), str(HERE)]

    adopt_orphans()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the finally below runs
    try:
        return measure(args)
    finally:
        stop_children()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
