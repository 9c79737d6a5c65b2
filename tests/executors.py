"""Serial-vs-process identity, shared by the drivers' test files.

``EngineConfig.executor`` is the only switch that moves a driver's
shards onto the worker pool (:mod:`repro.parallel`).  The pool's
contract is that doing so changes which OS process computes each shard
and nothing else: :func:`on_both_executors` runs one driver call under
each executor and asserts exactly that.
"""

from __future__ import annotations

from repro.core.config import EngineConfig
from repro.core.distributed import DistributedResult


def with_executor(config: EngineConfig | None, executor: str) -> EngineConfig:
    """``config`` on the serial executor or on a 2-worker pool."""
    cfg = config or EngineConfig()
    return cfg.with_(executor=executor, num_workers=2 if executor == "process" else None)


def shard_fingerprint(res):
    """Everything observable about one shard's execution."""
    return [
        (r.matches, r.cycles, r.sim_ms, r.status, r.detail,
         r.num_local_steals, r.num_global_steals, r.num_lost_steals)
        for r in res.per_device
    ]


def sans_caches(report):
    """Report minus host-side cache telemetry.

    The plan/code cache hit counters are per-OS-process state (the
    serial path accumulates them in one process, pool workers each
    carry their own, and persistent workers stay warm across runs), so
    like wall clock they are outside the "changes which OS process
    computes each result and nothing else" contract.
    """
    if not isinstance(report, dict):
        return report
    out = {k: v for k, v in report.items() if k != "caches"}
    if "children" in out:
        out["children"] = [sans_caches(c) for c in out["children"]]
    return out


def assert_identical(serial, process):
    """Equal matches, status, per-shard results and report."""
    assert process.matches == serial.matches
    assert process.status == serial.status
    assert process.sim_ms == serial.sim_ms
    assert process.num_requeued == serial.num_requeued
    assert process.detail == serial.detail
    assert sans_caches(process.report) == sans_caches(serial.report)
    if isinstance(serial, DistributedResult):
        assert (process.task_statuses, process.task_costs_ms, process.num_steals,
                process.num_lost_messages, process.num_machine_failures) \
            == (serial.task_statuses, serial.task_costs_ms, serial.num_steals,
                serial.num_lost_messages, serial.num_machine_failures)
    else:
        assert shard_fingerprint(process) == shard_fingerprint(serial)


def on_both_executors(run, config: EngineConfig | None = None):
    """``run(config)`` under the serial executor and on a 2-worker pool:
    asserts the two results identical and returns the pool's."""
    serial = run(with_executor(config, "serial"))
    process = run(with_executor(config, "process"))
    assert_identical(serial, process)
    return process


def log_events(log):
    """A protocol log's events apart from pool teardowns, which only
    the pool writes."""
    return [(e.kind, e.key, e.data) for e in log if e.kind != "pool_teardown"]


def response_fingerprint(resp):
    """A served response minus its request id and host wall clock."""
    return (resp.graph_version, resp.status, resp.matches, resp.exact,
            resp.degraded, resp.degrade_level, resp.detail, resp.run_status,
            resp.cycles, resp.sim_ms, resp.attempts, resp.served_from)
