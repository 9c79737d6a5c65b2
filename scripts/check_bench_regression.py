#!/usr/bin/env python
"""Gate fast-path performance: compare BENCH_fastpath.json files.

Three modes:

* ``check_bench_regression.py CURRENT.json`` — validate a single bench
  file's invariants: every workload must report byte-identical matches
  and cycles between the two backends, and the geomean speedup must
  reach ``--min-speedup`` (default 3.0, the acceptance floor).

* ``check_bench_regression.py BASELINE.json CURRENT.json`` — the CI
  gate: additionally fail if any workload tracked by the baseline got
  more than ``--threshold`` (default 20%) slower on the fast path, or
  disappeared from the current file.

* ``check_bench_regression.py --profile BENCH_profile.json`` —
  validate a ``python -m repro.bench profile`` payload against the
  ``repro.obs`` schema, check the zero-overhead identity flags, and
  require each query's full-over-baseline speedup to reach
  ``--min-profile-speedup`` (default 1.0 — optimizations must never
  make a query slower than the naive rung).

* ``check_bench_regression.py --codegen BENCH_codegen.json`` —
  validate a ``python -m repro.bench codegen`` payload: every cell must
  report byte-identical matches and cycles between the interpreted fast
  path and the compiled tier, and the geomean speedup over the *dense*
  cells must reach ``--min-codegen-speedup`` (default 1.0: the compiled
  tier must not lose to the interpreted walk it prints.  It was 2.0
  while the count-only leaves existed only in emitted source; both
  tiers share them now, so the gap is inlining alone — sparse stand-in
  rows are informational because the shared kernel loop bounds their
  ratio).

* ``check_bench_regression.py --serve BENCH_serve.json`` — validate a
  ``python -m repro.bench serve`` payload against the ``repro.obs``
  service schema and its robustness invariants: the terminal-status
  accounting adds up, every countable response matched its golden
  count (load *and* chaos phase), degraded/shed responses were
  explicitly marked, the chaos phase actually opened and re-closed the
  circuit breaker, and the load phase ran at least ``--min-clients``
  concurrent clients (default 4).  Absolute latency/throughput are
  recorded, never gated — they are machine-dependent.

* ``check_bench_regression.py --dynamic BENCH_dynamic.json`` —
  validate a ``python -m repro.bench dynamic`` payload: every cell must
  report ``base + delta.net == recount`` (the incremental counter
  agrees with a from-scratch count of the mutated graph) and the
  geomean speedup of delta exploration over full recounts on
  small-batch cells must reach ``--min-dynamic-speedup`` (default 3.0
  — delta anchoring is pointless if it does not beat recounting).

* ``check_bench_regression.py --scale BENCH_scale.json`` — validate
  a ``python -m repro.bench scale`` payload: the out-of-core RSS probe
  must report byte-identical matches and cycles between the
  materialized and memory-mapped backends AND a memmap peak-RSS delta
  at or below ``--max-rss-ratio`` (default 0.5) of the materialized
  delta; every range-partitioned point must count exactly the serial
  whole-graph matches; and the 4-shard speedup must reach
  ``--min-scale-speedup`` (default 2.0) scaled by
  ``min(4, cpu_count) / 4`` — the same honesty clause as the parallel
  gate, so a single-core recording host is not asked to fabricate
  parallelism.

* ``check_bench_regression.py --parallel BENCH_parallel.json`` —
  validate a ``python -m repro.bench parallel`` payload: every
  (workload, worker-count) point must report byte-identical matches
  and cycles between the serial and process backends, and the geomean
  speedup at 4 workers must reach ``--min-parallel-speedup`` (default
  2.5) *scaled by the parallelism the recording host could physically
  deliver* — ``min(4, cpu_count) / 4`` — so a payload generated on a
  core-constrained box is held to an honest floor (e.g. 1 usable CPU
  caps any 4-worker speedup near 1×; demanding 2.5× there would only
  reward fabricated numbers).  On a ≥ 4-core host the full floor
  applies.

Exit status 0 = pass, 1 = regression/violation, 2 = bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _import_obs():
    """Import ``repro.obs`` even when the package isn't installed."""
    try:
        from repro import obs
    except ImportError:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        from repro import obs
    return obs


def load(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if "workloads" not in data:
        print(f"error: {path} has no 'workloads' key (not a fastpath bench file?)",
              file=sys.stderr)
        raise SystemExit(2)
    return data


def by_key(data: dict) -> dict[str, dict]:
    return {w["key"]: w for w in data["workloads"]}


def check_invariants(data: dict, min_speedup: float | None) -> list[str]:
    """Identity and speedup-floor violations inside one bench file."""
    problems = []
    for w in data["workloads"]:
        if not w.get("identical_matches", False):
            problems.append(f"{w['key']}: fastpath changed the match count")
        if not w.get("identical_cycles", False):
            problems.append(f"{w['key']}: fastpath changed the simulated cycles")
    if min_speedup is not None:
        gm = data.get("geomean_speedup")
        if gm is None or gm < min_speedup:
            problems.append(
                f"geomean speedup {gm} is below the {min_speedup}× floor"
            )
    return problems


def check_regressions(baseline: dict, current: dict, threshold: float) -> list[str]:
    """Per-workload fast-path wall-clock regressions beyond ``threshold``."""
    problems = []
    cur = by_key(current)
    for key, base_w in by_key(baseline).items():
        cur_w = cur.get(key)
        if cur_w is None:
            problems.append(f"{key}: tracked workload missing from current bench")
            continue
        base_s = base_w["wall_s_fastpath"]
        cur_s = cur_w["wall_s_fastpath"]
        if base_s > 0 and cur_s > base_s * (1.0 + threshold):
            problems.append(
                f"{key}: fastpath wall {cur_s:.3f}s is "
                f"{cur_s / base_s - 1.0:+.0%} vs baseline {base_s:.3f}s "
                f"(threshold {threshold:.0%})"
            )
    return problems


def check_profile(path: str, min_speedup: float) -> list[str]:
    """Validate a ``repro.bench profile`` payload (schema + invariants)."""
    obs = _import_obs()
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    try:
        obs.validate_profile(payload)
    except ValueError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    problems = []
    for qname, q in sorted(payload["queries"].items()):
        fp = q["fastpath"]
        if not fp.get("identical_matches", False):
            problems.append(f"{qname}: fastpath changed the match count")
        if not fp.get("identical_cycles", False):
            problems.append(f"{qname}: fastpath changed the simulated cycles")
        speedup = q["speedup_full_vs_baseline"]
        if speedup < min_speedup:
            problems.append(
                f"{qname}: full-config speedup {speedup:.2f}× is below the "
                f"{min_speedup}× floor (optimizations made it slower)"
            )
        for vname, row in q["variants"].items():
            if row["status"] not in ("ok", "budget"):
                problems.append(f"{qname}/{vname}: status {row['status']!r}")
    return problems


def check_codegen(path: str, min_speedup: float) -> list[str]:
    """Validate a ``repro.bench codegen`` payload (identity + dense floor)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if payload.get("experiment") != "codegen" or "workloads" not in payload:
        print(f"error: {path} is not a codegen bench payload", file=sys.stderr)
        raise SystemExit(2)
    problems = []
    dense = 0
    for w in payload["workloads"]:
        if not w.get("identical_matches", False):
            problems.append(f"{w['key']}: codegen changed the match count")
        if not w.get("identical_cycles", False):
            problems.append(f"{w['key']}: codegen changed the simulated cycles")
        dense += bool(w.get("dense"))
    if not dense:
        problems.append("payload has no dense cells — nothing feeds the gate")
    gm = payload.get("geomean_speedup_dense")
    if gm is None:
        problems.append("payload has no geomean_speedup_dense")
    elif gm < min_speedup:
        problems.append(
            f"dense geomean speedup {gm}× is below the {min_speedup}× floor"
        )
    return problems


def check_parallel(path: str, min_speedup: float) -> list[str]:
    """Validate a ``repro.bench parallel`` payload (identity + scaling)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if payload.get("experiment") != "parallel" or "workloads" not in payload:
        print(f"error: {path} is not a parallel bench payload", file=sys.stderr)
        raise SystemExit(2)
    problems = []
    for w in payload["workloads"]:
        for p in w.get("points", []):
            where = f"{w['key']}@{p['workers']}w"
            if not p.get("identical_matches", False):
                problems.append(f"{where}: process backend changed the match count")
            if not p.get("identical_cycles", False):
                problems.append(f"{where}: process backend changed the simulated cycles")
    cpus = int(payload.get("cpu_count") or 1)
    target_workers = 4
    # a k-worker pool cannot beat the cores it actually has: scale the
    # floor by the attainable parallelism of the recording host
    attainable = min(target_workers, max(1, cpus))
    required = min_speedup * attainable / target_workers
    gm = payload.get("geomean_speedup_at_4")
    if gm is None:
        problems.append("payload has no geomean_speedup_at_4 (no 4-worker points?)")
    elif gm < required:
        problems.append(
            f"geomean 4-worker speedup {gm}× is below the floor "
            f"{required:.2f}× ({min_speedup}× scaled by "
            f"min(4, {cpus} cpu(s))/4)"
        )
    return problems


def check_scale(path: str, max_rss_ratio: float,
                min_speedup: float) -> list[str]:
    """Validate a ``repro.bench scale`` payload (RSS + partitioning)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if payload.get("experiment") != "scale" or "rss" not in payload \
            or "partition" not in payload:
        print(f"error: {path} is not a scale bench payload", file=sys.stderr)
        raise SystemExit(2)
    problems = []
    rss = payload["rss"]
    if not rss.get("identical_matches", False):
        problems.append("rss probe: memmap backend changed the match count")
    if not rss.get("identical_cycles", False):
        problems.append("rss probe: memmap backend changed the simulated cycles")
    mat_delta = (rss.get("memory") or {}).get("rss_delta_kb")
    if not mat_delta or mat_delta <= 0:
        problems.append(
            "rss probe: materialized arm reports a zero/absent peak-RSS "
            "delta — the probe measured nothing (a broken measurement "
            "must not pass the ceiling vacuously)")
    ratio = rss.get("ratio")
    if ratio is None or ratio > max_rss_ratio:
        problems.append(
            f"rss probe: memmap peak-RSS delta is {ratio}x the "
            f"materialized delta, above the {max_rss_ratio}x ceiling — "
            "the out-of-core backend is not staying out of core")
    part = payload["partition"]
    if not part.get("identical_matches", False):
        problems.append(
            f"{part.get('key')}: a range-partitioned point diverged from "
            "the serial whole-graph count (double count or orphaned roots)")
    cpus = int(payload.get("cpu_count") or 1)
    target_shards = 4
    attainable = min(target_shards, max(1, cpus))
    required = min_speedup * attainable / target_shards
    sp = part.get("speedup_at_4")
    if sp is None:
        problems.append("payload has no speedup_at_4 (no 4-shard point?)")
    elif sp < required:
        problems.append(
            f"4-shard speedup {sp}x is below the floor {required:.2f}x "
            f"({min_speedup}x scaled by min(4, {cpus} cpu(s))/4)")
    return problems


def check_serve(path: str, min_clients: int) -> list[str]:
    """Validate a ``repro.bench serve`` payload (schema + invariants)."""
    obs = _import_obs()
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    try:
        obs.validate_service_report(payload)
    except ValueError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    problems = []
    if payload["clients"] < min_clients:
        problems.append(
            f"load phase ran {payload['clients']} client(s), below the "
            f"{min_clients}-client floor — no concurrency was exercised"
        )
    chaos = payload["chaos"]
    if not chaos.get("breaker_opened", False):
        problems.append("chaos phase never opened the circuit breaker")
    breaker = payload["breaker"]
    if not breaker.get("closes"):
        problems.append(
            "the breaker never closed again — the half-open probe path "
            "was not exercised"
        )
    if chaos.get("countable", 0) < 1:
        problems.append("chaos phase produced no countable responses")
    return problems


def check_dynamic(path: str, min_speedup: float) -> list[str]:
    """Validate a ``repro.bench dynamic`` payload (identity + small-batch
    speedup floor)."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        raise SystemExit(2)
    if payload.get("experiment") != "dynamic" or "workloads" not in payload:
        print(f"error: {path} is not a dynamic bench payload", file=sys.stderr)
        raise SystemExit(2)
    problems = []
    small_max = payload.get("small_batch_max", 4)
    small = 0
    for w in payload["workloads"]:
        where = f"{w['key']}@{w.get('batch_size')}edits"
        if not w.get("identical_counts", False):
            problems.append(
                f"{where}: incremental delta disagrees with the full recount")
        if w.get("anchor_runs", 0) < 1:
            problems.append(f"{where}: no anchored launches recorded")
        small += w.get("batch_size", small_max + 1) <= small_max
    if not small:
        problems.append(
            f"payload has no small-batch cells (<= {small_max} edits) — "
            "nothing feeds the gate")
    gm = payload.get("geomean_speedup_small_batch")
    if gm is None:
        problems.append("payload has no geomean_speedup_small_batch")
    elif gm < min_speedup:
        problems.append(
            f"small-batch geomean speedup {gm}× is below the "
            f"{min_speedup}× floor — delta exploration no longer beats "
            f"a full recount")
    return problems


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("baseline", help="baseline JSON (or the only file to validate)")
    p.add_argument("current", nargs="?", default=None,
                   help="current JSON to compare against the baseline")
    p.add_argument("--threshold", type=float, default=0.20,
                   help="allowed fractional slowdown per workload (default 0.20)")
    p.add_argument("--min-speedup", type=float, default=3.0,
                   help="required geomean speedup in the current file "
                        "(default 3.0; pass 0 to disable)")
    p.add_argument("--profile", action="store_true",
                   help="treat the file as a BENCH_profile.json payload and "
                        "validate it against the repro.obs schema")
    p.add_argument("--min-profile-speedup", type=float, default=1.0,
                   help="profile mode: required full-over-baseline speedup "
                        "per query (default 1.0)")
    p.add_argument("--codegen", action="store_true",
                   help="treat the file as a BENCH_codegen.json payload: "
                        "check interp/codegen identity per cell and the "
                        "dense-cell geomean speedup floor")
    p.add_argument("--min-codegen-speedup", type=float, default=1.0,
                   help="codegen mode: required geomean speedup over the "
                        "dense cells (default 1.0)")
    p.add_argument("--parallel", action="store_true",
                   help="treat the file as a BENCH_parallel.json payload: "
                        "check serial/process identity per point and the "
                        "4-worker geomean floor (scaled by the recording "
                        "host's cpu_count)")
    p.add_argument("--min-parallel-speedup", type=float, default=2.5,
                   help="parallel mode: required geomean speedup at 4 "
                        "workers on a >= 4-core host (default 2.5); scaled "
                        "down by min(4, cpu_count)/4 on smaller hosts")
    p.add_argument("--scale", action="store_true",
                   help="treat the file as a BENCH_scale.json payload: "
                        "check memmap/materialized identity + the peak-RSS "
                        "ceiling and the 4-shard speedup floor (scaled by "
                        "the recording host's cpu_count)")
    p.add_argument("--max-rss-ratio", type=float, default=0.5,
                   help="scale mode: ceiling on memmap-over-materialized "
                        "peak-RSS delta (default 0.5)")
    p.add_argument("--min-scale-speedup", type=float, default=2.0,
                   help="scale mode: required 4-shard speedup on a >= "
                        "4-core host (default 2.0); scaled down by "
                        "min(4, cpu_count)/4 on smaller hosts")
    p.add_argument("--dynamic", action="store_true",
                   help="treat the file as a BENCH_dynamic.json payload: "
                        "check incremental-vs-recount identity per cell and "
                        "the small-batch geomean speedup floor")
    p.add_argument("--min-dynamic-speedup", type=float, default=3.0,
                   help="dynamic mode: required geomean speedup of "
                        "incremental deltas over full recounts on "
                        "small batches (default 3.0)")
    p.add_argument("--serve", action="store_true",
                   help="treat the file as a BENCH_serve.json payload: "
                        "validate the service schema, identity/accounting "
                        "invariants and the breaker lifecycle")
    p.add_argument("--min-clients", type=int, default=4,
                   help="serve mode: minimum concurrent clients the load "
                        "phase must have run (default 4)")
    args = p.parse_args(argv)

    if args.scale:
        if args.current is not None:
            p.error("--scale takes a single file")
        problems = check_scale(args.baseline, args.max_rss_ratio,
                               args.min_scale_speedup)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        with open(args.baseline) as fh:
            payload = json.load(fh)
        rss, part = payload["rss"], payload["partition"]
        print(f"ok: scale payload valid — memmap peak-RSS delta "
              f"{rss['ratio']}x of materialized "
              f"({rss['store_bytes'] >> 20} MB store), 4-shard speedup "
              f"{part.get('speedup_at_4')}x on "
              f"{payload.get('cpu_count')} cpu(s), identity "
              f"invariants hold")
        return 0

    if args.serve:
        if args.current is not None:
            p.error("--serve takes a single file")
        problems = check_serve(args.baseline, args.min_clients)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        with open(args.baseline) as fh:
            payload = json.load(fh)
        r = payload["requests"]
        print(f"ok: serve payload valid — {r['total']} request(s) at "
              f"{payload['clients']} client(s), {r['ok']} served / "
              f"{r['shed']} shed / {r['degraded']} degraded, p50 "
              f"{payload['latency_ms']['p50']:.2f} ms, p99 "
              f"{payload['latency_ms']['p99']:.2f} ms, breaker "
              f"opened+closed, identity and accounting invariants hold")
        return 0

    if args.dynamic:
        if args.current is not None:
            p.error("--dynamic takes a single file")
        problems = check_dynamic(args.baseline, args.min_dynamic_speedup)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        with open(args.baseline) as fh:
            payload = json.load(fh)
        print(f"ok: dynamic payload valid, {len(payload['workloads'])} "
              f"cell(s), small-batch geomean speedup "
              f"{payload.get('geomean_speedup_small_batch')}×, "
              f"incremental counts identical to full recounts")
        return 0

    if args.codegen:
        if args.current is not None:
            p.error("--codegen takes a single file")
        problems = check_codegen(args.baseline, args.min_codegen_speedup)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        with open(args.baseline) as fh:
            payload = json.load(fh)
        ndense = sum(bool(w.get("dense")) for w in payload["workloads"])
        print(f"ok: codegen payload valid, {len(payload['workloads'])} "
              f"cell(s) ({ndense} dense), dense geomean speedup "
              f"{payload.get('geomean_speedup_dense')}×, identity "
              f"invariants hold")
        return 0

    if args.parallel:
        if args.current is not None:
            p.error("--parallel takes a single file")
        problems = check_parallel(args.baseline, args.min_parallel_speedup)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        with open(args.baseline) as fh:
            payload = json.load(fh)
        print(f"ok: parallel payload valid, "
              f"{len(payload['workloads'])} workload(s), geomean 4-worker "
              f"speedup {payload.get('geomean_speedup_at_4')}× on "
              f"{payload.get('cpu_count')} cpu(s), identity invariants hold")
        return 0

    if args.profile:
        if args.current is not None:
            p.error("--profile takes a single file")
        problems = check_profile(args.baseline, args.min_profile_speedup)
        if problems:
            for msg in problems:
                print(f"FAIL: {msg}", file=sys.stderr)
            return 1
        with open(args.baseline) as fh:
            nq = len(json.load(fh)["queries"])
        print(f"ok: profile payload valid, {nq} queries, identity and "
              f"speedup invariants hold")
        return 0

    min_speedup = args.min_speedup if args.min_speedup > 0 else None
    if args.current is None:
        current = load(args.baseline)
        problems = check_invariants(current, min_speedup)
    else:
        baseline = load(args.baseline)
        current = load(args.current)
        problems = check_invariants(current, min_speedup)
        problems += check_regressions(baseline, current, args.threshold)

    if problems:
        for msg in problems:
            print(f"FAIL: {msg}", file=sys.stderr)
        return 1
    n = len(current["workloads"])
    print(f"ok: {n} workload(s), geomean speedup "
          f"{current.get('geomean_speedup')}×, identity invariants hold")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
