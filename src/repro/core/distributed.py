"""Distributed-cluster execution (the Sec. VIII-B extension).

The paper notes STMatch "can also be extended to run on distributed GPU
clusters with slight changes in the work-stealing procedure to take the
communication cost across machines into consideration".  This module
implements that extension on the virtual substrate:

* the root-vertex range is split into many *tasks* (coarse chunks);
* each task's cost is obtained by actually running the STMatch kernel
  on its range (one kernel per task, exactly how a cluster node would
  execute a stolen range);
* machines hold task queues and run their local GPUs as workers;
* when a machine drains its queue it steals half of the most-loaded
  machine's remaining tasks, paying a network cost (latency + bytes/BW)
  — the "slight change" the paper describes: stealing granularity is
  whole root ranges, because shipping live stacks across machines would
  cost more than recomputing them.

Failure handling (``fault_plan``): machines fail-stop at scheduled
times; their queued *and* in-flight tasks are orphaned and re-queued
onto survivors, each pickup paying the steal network cost plus an
exponential retry backoff (:meth:`NetworkModel.backoff_ms`).  Steal
messages on the cluster network can be lost (the sender pays latency +
backoff and retries).  Task matches are committed exactly once, at
completion on a machine that is still alive — the commit-at-completion
discipline that keeps recovered counts identical to fault-free runs.

The simulation is deterministic and returns per-machine timelines so
tests can assert both the load-balancing behaviour and that match
counts are preserved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.pattern.query import QueryGraph

from .config import EngineConfig
from .counters import RunStatus
from .engine import STMatchEngine

__all__ = ["NetworkModel", "DistributedResult", "run_distributed"]


@dataclass(frozen=True)
class NetworkModel:
    """Inter-machine communication cost (converted to simulated ms)."""

    latency_ms: float = 0.05           # per steal round trip
    bandwidth_gbps: float = 12.5       # task-descriptor + range transfer
    steal_message_bytes: int = 4096    # descriptors are tiny: ranges, not stacks
    retry_backoff_ms: float = 0.1      # base for exponential retry backoff

    def steal_cost_ms(self, num_tasks: int) -> float:
        bits = 8 * self.steal_message_bytes * max(num_tasks, 1)
        return self.latency_ms + bits / (self.bandwidth_gbps * 1e9) * 1e3

    def backoff_ms(self, attempt: int) -> float:
        """Exponential backoff before the ``attempt``-th retry of a
        failed pickup/steal (attempt 0 = first retry)."""
        return self.retry_backoff_ms * (2.0 ** max(attempt, 0))


@dataclass
class MachineState:
    machine_id: int
    queue: list[int] = field(default_factory=list)  # task ids
    gpu_free_at: list[float] = field(default_factory=list)
    busy_ms: float = 0.0
    steals: int = 0
    alive: bool = True
    failed_at_ms: float | None = None
    # gid -> (task, start_ms, end_ms): assigned but not yet committed
    inflight: dict[int, tuple[int, float, float]] = field(default_factory=dict)

    @property
    def finish_ms(self) -> float:
        return max(self.gpu_free_at, default=0.0)


@dataclass
class DistributedResult:
    """Outcome of a distributed run.

    ``matches`` sums exactly the committed tasks; when every task
    committed the total equals the fault-free count (X506 discipline).
    ``status`` is ``"ok"`` for a clean run, ``"recovered"`` when
    failures occurred but every task still committed, ``"failed"``
    when tasks were lost for good (``detail`` names them); profiling
    failures (e.g. an OOM config) propagate the worst task status.
    """

    num_machines: int
    gpus_per_machine: int
    matches: int
    sim_ms: float
    machines: list[MachineState]
    task_costs_ms: list[float]
    num_steals: int
    status: str = RunStatus.OK
    task_statuses: list[str] = field(default_factory=list)
    num_requeued: int = 0
    num_lost_messages: int = 0
    num_machine_failures: int = 0
    detail: str = ""
    report: dict | None = field(default=None, repr=False)

    def __repr__(self) -> str:
        parts = [
            f"num_machines={self.num_machines}",
            f"gpus_per_machine={self.gpus_per_machine}",
            f"status={self.status!r}",
            f"matches={self.matches}",
            f"sim_ms={self.sim_ms:.3f}",
            f"num_steals={self.num_steals}",
        ]
        if self.num_machine_failures:
            parts.append(f"num_machine_failures={self.num_machine_failures}")
        if self.num_requeued:
            parts.append(f"num_requeued={self.num_requeued}")
        if self.detail:
            parts.append(f"detail={self.detail!r}")
        if self.report is not None:
            parts.append("report=<attached>")
        return f"DistributedResult({', '.join(parts)})"

    @property
    def ok(self) -> bool:
        return self.status == RunStatus.OK

    @property
    def countable(self) -> bool:
        return self.status in RunStatus.COUNTABLE

    def speedup_over(self, single_ms: float) -> float:
        return single_ms / self.sim_ms if self.sim_ms > 0 else float("inf")


def _profile_tasks(
    graph: CSRGraph,
    plan: MatchingPlan,
    config: EngineConfig,
    num_tasks: int,
) -> tuple[list[float], list[int], list[str], list[dict | None]]:
    """Execute each root-range task on a virtual device; return per-task
    simulated ms (minus the shared launch, charged once per assignment),
    match counts, statuses and (with ``config.observe``) reports.

    A failed task (OOM, injected fault) reports its real status instead
    of silently entering the totals as 0 matches — the caller decides
    whether the aggregate count is still meaningful.

    Task profiling is the only real kernel work of a distributed run
    (the event loop replays the profiled costs).  Each task is one
    :class:`~repro.parallel.ShardSpec` run by
    :func:`~repro.parallel.run_shards` — in-process under the serial
    executor, on the worker pool under ``config.executor == "process"``
    — so per-task results are identical and the loop stays
    deterministic.
    """
    from .candidates import CandidateComputer

    ranges: list[tuple[int, int]] | None = None
    if config.partition_mode == "range":
        # scale mode: tasks own contiguous edge-balanced *vertex* ranges
        # (each runs on its 1-hop-replicated view) instead of slices of
        # the root-candidate index space over a fully replicated graph
        from repro.scale.partition import VertexPartition

        part = VertexPartition.balanced(graph, num_tasks)
        part.verify(graph.num_vertices)
        ranges = [part.range_of(i) for i in range(num_tasks)]
        bounds = []
    else:
        total_roots = int(
            CandidateComputer(graph, plan, config).root_candidates.size
        )
        bounds = [round(i * total_roots / num_tasks) for i in range(num_tasks + 1)]

    from repro.parallel import ShardSpec, resolve_execution, run_shards

    executor, num_workers = resolve_execution(config)
    specs = [
        ShardSpec(index=i, device_id=i,
                  root_range=None if ranges else (bounds[i], bounds[i + 1]),
                  vertex_range=ranges[i] if ranges else None)
        for i in range(num_tasks)
    ]
    task_results = run_shards(
        graph, plan, config, specs,
        num_workers=num_workers if executor == "process" else 1,
        timeout_s=config.worker_timeout_s)
    costs = [r.sim_ms for r in task_results]
    matches = [r.matches if r.countable else 0 for r in task_results]
    statuses = [r.status for r in task_results]
    reports = [r.report for r in task_results]
    return costs, matches, statuses, reports


def run_distributed(
    graph: CSRGraph,
    query: QueryGraph | MatchingPlan,
    num_machines: int,
    gpus_per_machine: int = 1,
    config: EngineConfig | None = None,
    network: NetworkModel | None = None,
    tasks_per_gpu: int = 4,
    vertex_induced: bool = False,
    fault_plan=None,
) -> DistributedResult:
    """Run one query on a simulated GPU cluster.

    Each machine starts with a contiguous share of the task list (the
    graph is replicated, as in the single-node multi-GPU setup); GPUs
    pull tasks from their machine's queue; idle machines steal across
    the network.  With a :class:`~repro.faults.FaultPlan`, machines
    fail-stop at their scheduled times and survivors absorb the
    orphaned tasks (see module docstring).
    """
    if num_machines < 1 or gpus_per_machine < 1:
        raise ValueError("need at least one machine and one GPU")
    config = config or EngineConfig()
    network = network or NetworkModel()
    engine = STMatchEngine(graph, config)
    plan = query if isinstance(query, MatchingPlan) else engine.plan(
        query, vertex_induced=vertex_induced
    )
    num_tasks = max(1, num_machines * gpus_per_machine * tasks_per_gpu)
    costs, matches, task_statuses, task_reports = _profile_tasks(
        graph, plan, config, num_tasks)

    fail_at: dict[int, float | None] = {
        mid: (fault_plan.machine_fail_ms(mid) if fault_plan is not None else None)
        for mid in range(num_machines)
    }
    lost_budget = fault_plan.cluster_steal_losses() if fault_plan is not None else 0

    # initial static assignment: contiguous task ranges per machine
    machines = []
    for mid in range(num_machines):
        lo = round(mid * num_tasks / num_machines)
        hi = round((mid + 1) * num_tasks / num_machines)
        machines.append(
            MachineState(
                machine_id=mid,
                queue=list(range(lo, hi)),
                gpu_free_at=[0.0] * gpus_per_machine,
            )
        )
    num_steals = 0
    num_lost_messages = 0
    num_requeued = 0
    committed: dict[int, int] = {}   # task -> matches (exactly-once)
    orphans: list[int] = []          # tasks of dead machines, FIFO
    retries: dict[int, int] = {}     # task -> pickup retries so far

    def commit(task: int) -> None:
        # exactly-once: a task commits at completion on a live machine;
        # re-queued copies of an already-committed task cannot exist
        # because orphaning only happens on loss (X506 discipline)
        assert task not in committed, f"task {task} committed twice"
        committed[task] = matches[task]

    def kill(machine: MachineState) -> None:
        nonlocal num_requeued
        t_fail = fail_at[machine.machine_id]
        assert t_fail is not None
        machine.alive = False
        machine.failed_at_ms = t_fail
        for gid, (task, t0, t1) in sorted(machine.inflight.items()):
            if t1 <= t_fail:
                machine.busy_ms += t1 - t0
                commit(task)
            else:
                # lost mid-execution: partial progress is discarded,
                # the task is re-queued whole (stacks are not shipped
                # across machines — recompute beats network cost)
                machine.busy_ms += t_fail - t0
                orphans.append(task)
                retries[task] = retries.get(task, 0) + 1
                num_requeued += 1
        machine.inflight.clear()
        # queued (never-started) tasks are orphaned as-is
        orphans.extend(machine.queue)
        num_requeued += len(machine.queue)
        machine.queue.clear()
        for gid in range(len(machine.gpu_free_at)):
            machine.gpu_free_at[gid] = t_fail

    def most_loaded_victim(thief: MachineState) -> MachineState | None:
        best, best_load = None, 0.0
        for m in machines:
            if m is thief or not m.alive or len(m.queue) < 2:
                continue
            load = sum(costs[t] for t in m.queue)
            if load > best_load:
                best, best_load = m, load
        return best

    # event loop: repeatedly let the earliest-free *live* GPU act;
    # machine deaths are processed before any action at a later time
    while len(committed) < num_tasks:
        live = [(m.machine_id, g)
                for m in machines if m.alive
                for g in range(gpus_per_machine)]
        if not live:
            break  # whole cluster down

        def pick_key(mg: tuple[int, int]) -> tuple:
            m = machines[mg[0]]
            # on clock ties, GPUs with actual work (a completion to
            # commit, a queued task, or orphans to pick up) act before
            # idle ones — otherwise an idle GPU parked at the horizon
            # could be re-picked forever ahead of a same-clock worker
            has_work = mg[1] in m.inflight or bool(m.queue) or bool(orphans)
            return (m.gpu_free_at[mg[1]], 0 if has_work else 1, mg[0], mg[1])

        mid, gid = min(live, key=pick_key)
        machine = machines[mid]
        now = machine.gpu_free_at[gid]
        # process every scheduled death up to 'now' first, in time order
        dying = [m for m in machines
                 if m.alive and fail_at[m.machine_id] is not None
                 and fail_at[m.machine_id] <= now]
        if dying:
            kill(min(dying, key=lambda m: (fail_at[m.machine_id], m.machine_id)))
            continue
        # this GPU's previous assignment (if any) just completed
        if gid in machine.inflight:
            task, t0, t1 = machine.inflight.pop(gid)
            machine.busy_ms += t1 - t0
            commit(task)
        if not machine.queue:
            # orphaned work first: the cluster must drain dead machines'
            # tasks before load-balancing among the living
            if orphans:
                task = orphans.pop(0)
                attempt = retries.get(task, 0)
                cost = network.steal_cost_ms(1) + network.backoff_ms(attempt)
                if lost_budget > 0:
                    lost_budget -= 1
                    num_lost_messages += 1
                    retries[task] = attempt + 1
                    orphans.append(task)  # pickup message lost: retry later
                    machine.gpu_free_at[gid] = now + cost
                    continue
                machine.queue.append(task)
                machine.steals += 1
                num_steals += 1
                machine.gpu_free_at[gid] = now + cost
                continue
            victim = most_loaded_victim(machine)
            if victim is None:
                # nothing stealable now: sleep until the next event that
                # can change that (a death or another GPU finishing), or
                # park at the horizon when no such event remains
                events = [t for t in fail_at.values() if t is not None and t > now]
                events += [t1 for m in machines if m.alive
                           for (_, _, t1) in m.inflight.values() if t1 > now]
                if events:
                    machine.gpu_free_at[gid] = min(events)
                    continue
                remaining = [m for m in machines if m.alive and m.queue]
                if not remaining:
                    break
                horizon = max(m.finish_ms for m in machines if m.alive)
                machine.gpu_free_at[gid] = max(now, horizon)
                if all(
                    not m.queue and all(t >= horizon for t in m.gpu_free_at)
                    for m in machines if m.alive
                ):
                    break
                continue
            take = len(victim.queue) // 2
            cost = network.steal_cost_ms(take)
            if lost_budget > 0:
                lost_budget -= 1
                num_lost_messages += 1
                # steal request lost in flight: victim keeps its queue,
                # thief pays latency + backoff and retries
                machine.gpu_free_at[gid] = now + network.latency_ms \
                    + network.backoff_ms(num_lost_messages - 1)
                continue
            stolen, victim.queue[:] = victim.queue[-take:], victim.queue[:-take]
            machine.queue.extend(stolen)
            machine.steals += 1
            num_steals += 1
            machine.gpu_free_at[gid] = now + cost
            continue
        task = machine.queue.pop(0)
        end = now + costs[task]
        machine.inflight[gid] = (task, now, end)
        machine.gpu_free_at[gid] = end

    # drain: commit work that finished but was never re-polled (the loop
    # exits as soon as the count is reached or nothing can change)
    for m in machines:
        if not m.alive:
            continue
        for gid, (task, t0, t1) in sorted(m.inflight.items()):
            m.busy_ms += t1 - t0
            commit(task)
        m.inflight.clear()

    lost_tasks = sorted(set(range(num_tasks)) - set(committed))
    num_failures = sum(1 for m in machines if not m.alive)
    profile_worst = RunStatus.worst(task_statuses)
    detail_parts = []
    if num_failures:
        detail_parts.append(
            f"{num_failures} machine failure(s), {num_requeued} task(s) re-queued")
    if num_lost_messages:
        detail_parts.append(f"{num_lost_messages} steal message(s) lost")
    if profile_worst not in RunStatus.COUNTABLE:
        bad = [i for i, s in enumerate(task_statuses)
               if s not in RunStatus.COUNTABLE]
        detail_parts.append(f"task profiling failed ({profile_worst}) for "
                            f"tasks {bad[:8]}")
        status = profile_worst
    elif lost_tasks:
        detail_parts.append(f"tasks lost for good: {lost_tasks[:8]}")
        status = RunStatus.FAILED
    elif num_failures or num_lost_messages or num_requeued:
        status = RunStatus.RECOVERED
    elif profile_worst != RunStatus.OK:
        status = profile_worst  # e.g. a BUDGET-capped task: lower bound
    else:
        status = RunStatus.OK

    sim_ms = max((m.finish_ms for m in machines), default=0.0)
    report = None
    children = [r for r in task_reports if r is not None]
    if children:
        from repro.obs import aggregate_reports

        report = aggregate_reports(
            "distributed", children, status=status,
            matches=sum(committed.values()), sim_ms=sim_ms,
            extra={
                "num_machines": num_machines,
                "gpus_per_machine": gpus_per_machine,
                "num_tasks": num_tasks,
                "num_steals": num_steals,
                "num_requeued": num_requeued,
                "num_machine_failures": num_failures,
            },
        )
    return DistributedResult(
        num_machines=num_machines,
        gpus_per_machine=gpus_per_machine,
        matches=sum(committed.values()),
        sim_ms=sim_ms,
        machines=machines,
        task_costs_ms=costs,
        num_steals=num_steals,
        status=status,
        task_statuses=task_statuses,
        num_requeued=num_requeued,
        num_lost_messages=num_lost_messages,
        num_machine_failures=num_failures,
        detail="; ".join(detail_parts),
        report=report,
    )
