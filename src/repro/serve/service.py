"""The long-lived match service: admission → execute → retry → degrade.

One :class:`MatchService` hosts a set of named, versioned graphs
(:class:`GraphHost`) and serves concurrent :class:`MatchRequest`\\ s
from client threads.  The execution pipeline, in order:

1. **Idempotency** — a request whose key is remembered is served from
   the window without re-execution (``request_replay``), *before*
   admission, so a retried request can never be shed after its work
   was counted (rule X511).
2. **Admission** — a bounded concurrency budget (``queue_depth``)
   sheds excess load with an explicit ``REJECTED_OVERLOAD``; per-tenant
   concurrency and simulated-cycle quotas shed with
   ``REJECTED_TENANT``.  Never a silent drop.
3. **Caching** — exact counts are memoized per
   ``(graph, version, query, config)`` (:mod:`repro.serve.cache`);
   replacing a graph bumps its version and invalidates its entries.
4. **Execution ladder** — rung 0 runs the configured path (the process
   pool when ``executor="process"``, guarded by the circuit breaker,
   with seeded retry + exponential backoff on pool-infrastructure
   failures); rung 1 steps down to an interpreted in-thread run; rung
   2 additionally truncates the exploration budget.  Every stepped-down
   answer is marked ``degraded=True`` with the reason in ``detail``.
   On every rung, a request that needs only the exact count — no
   budget (after tenant, request and rung-2 caps), undirected graph
   and query, no armed fault plan, no ``sanitize`` / ``observe`` /
   ``checkpoint_interval`` — runs its shard ``count_only``:
   :func:`~repro.core.frontier.frontier_count` answers it without the
   simulator, and the response reports zero ``cycles``.  Tenants with a
   ``cycle_quota`` stay on the simulator, so their bill stays in
   simulated cycles.
5. **Commit** — served responses with an idempotency key commit into
   the service :class:`~repro.faults.recovery.RecoveryLedger` exactly
   once (X506 across request boundaries); the bounded window evicts
   old keys through :meth:`RecoveryLedger.forget`.

Deadlines are wall-clock budgets for the *whole* request: the
remaining time propagates into the worker batch deadline
(``worker_timeout_s``) on every attempt, and an expired deadline is an
explicit ``DEADLINE_EXCEEDED``.  Chaos plans (:class:`FaultPlan`) are
armed per request through :func:`request_attempt_offset`, so a seeded
schedule targets specific requests deterministically —
``tests/test_serve_chaos.py`` replays one against a live service and
asserts every countable response equals the golden count.
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.core.config import EngineConfig
from repro.core.counters import RunResult, RunStatus
from repro.core.engine import cached_plan, engine_cache_stats
from repro.faults.recovery import RecoveryLedger
from repro.parallel import (
    ShardSpec,
    is_pool_infra_failure,
    pool_stats,
    resolve_execution,
    run_shards,
)
from repro.parallel.sharedgraph import export_graph

from .breaker import BreakerState, CircuitBreaker
from .cache import ResultCache
from .request import MatchRequest, MatchResponse, ResponseStatus, RetryPolicy, TenantPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.faults.recovery import SupportsEmit
    from repro.graph.csr import CSRGraph

__all__ = [
    "ATTEMPT_STRIDE",
    "EditReport",
    "GraphHost",
    "MatchService",
    "request_attempt_offset",
]

#: fault-plan attempt slots reserved per request token: service retries
#: and the in-request recovery ladder consume offsets
#: ``base .. base + ATTEMPT_STRIDE - 1``
ATTEMPT_STRIDE = 8

#: token space for request attempt offsets (crc32 reduced mod this)
_TOKEN_SPACE = 100_000


def request_attempt_offset(token: str, attempt: int = 0) -> int:
    """The fault-plan attempt offset of one request execution.

    Deterministic in ``token`` (the idempotency key or request id), so
    a chaos schedule can target a *specific* request's *specific*
    attempt: ``FaultEvent(WORKER_CRASH, device=0,
    attempt=request_attempt_offset(key))`` kills exactly that
    request's first pool attempt and nothing else.
    """
    base = zlib.crc32(token.encode("utf-8")) % _TOKEN_SPACE
    return base * ATTEMPT_STRIDE + attempt


class _LockedLog:
    """Serializes protocol-log emission across request threads (the
    underlying :class:`~repro.analysis.races.ProtocolLog` assumes a
    single-threaded coordinator)."""

    def __init__(self, log: "SupportsEmit") -> None:
        self._log = log
        self._lock = threading.Lock()

    def emit(self, kind: str, key: tuple | None = None, **data: Any) -> None:
        with self._lock:
            self._log.emit(kind, key=key, **data)


@dataclass(frozen=True)
class EditReport:
    """Outcome of one :meth:`MatchService.apply_edits` batch."""

    graph: str
    old_version: int
    new_version: int  #: equals old_version when the batch was a no-op
    num_inserts: int  #: effective inserts (after normalization)
    num_deletes: int  #: effective deletes (after normalization)
    entries_patched: int  #: cache entries carried forward (count + delta)
    entries_invalidated: int  #: old-version entries dropped instead
    #: anchored ``frontier_count`` calls spent on the deltas: per distinct
    #: cached query, one per (effective edge, arc-orbit representative)
    anchor_runs: int
    wall_s: float


class GraphHost:
    """One named, versioned, resident graph.

    ``snapshot`` returns an atomically consistent ``(graph, version)``
    pair; ``update`` installs a replacement graph under a new version.
    The host never mutates a graph in place — :class:`CSRGraph` is
    immutable — so in-flight requests keep counting on the snapshot
    they took, and their responses honestly name that version.
    """

    def __init__(self, name: str, graph: "CSRGraph") -> None:
        self.name = name
        self._graph = graph
        self._version = 1
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    def snapshot(self) -> "tuple[CSRGraph, int]":
        with self._lock:
            return self._graph, self._version

    def update(self, graph: "CSRGraph") -> int:
        with self._lock:
            self._graph = graph
            self._version += 1
            return self._version


class MatchService:
    """Threaded, long-lived match service over resident graphs."""

    def __init__(
        self,
        graphs: "dict[str, CSRGraph]",
        config: EngineConfig | None = None,
        *,
        queue_depth: int = 8,
        default_deadline_s: float | None = None,
        tenants: dict[str, TenantPolicy] | None = None,
        default_tenant_policy: TenantPolicy | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        result_cache_size: int | None = None,
        idempotency_window: int = 256,
        pressure_threshold: int | None = None,
        degrade_budget: int = 10_000,
        fault_plan: "FaultPlan | None" = None,
        protocol_log: "SupportsEmit | None" = None,
        seed: int = 0,
    ) -> None:
        if not graphs:
            raise ValueError("a match service needs at least one hosted graph")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if idempotency_window < 1:
            raise ValueError("idempotency_window must be >= 1")
        if degrade_budget < 1:
            raise ValueError("degrade_budget must be >= 1")
        self.config = config or EngineConfig()
        self.queue_depth = queue_depth
        self.default_deadline_s = default_deadline_s
        self.retry = retry or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.seed = seed
        self._hosts = {name: GraphHost(name, g) for name, g in graphs.items()}
        self._tenants = dict(tenants or {})
        self._default_policy = default_tenant_policy or TenantPolicy()
        self._cache = ResultCache(
            result_cache_size) if result_cache_size else ResultCache()
        self._idempotency_window = idempotency_window
        self._pressure_threshold = pressure_threshold
        self._degrade_budget = degrade_budget
        self._fault_plan = fault_plan
        self._chaos = fault_plan is not None and not fault_plan.empty
        self._log: "SupportsEmit | None" = (
            _LockedLog(protocol_log) if protocol_log is not None else None)
        self._ledger = RecoveryLedger(log=self._log)

        self._slots = threading.BoundedSemaphore(queue_depth)
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self._seq = 0
        self._tenant_inflight: dict[str, int] = {}
        self._tenant_cycles: dict[str, float] = {}
        self._counters: dict[str, int] = {
            "total": 0, "ok": 0, "exact": 0, "cached": 0, "replayed": 0,
            "degraded": 0, "shed": 0, "rejected_tenant": 0,
            "deadline_exceeded": 0, "failed": 0, "retries": 0,
        }

        self._idem_lock = threading.Lock()
        self._idem_window: OrderedDict[str, MatchResponse] = OrderedDict()
        self._idem_executing: dict[str, threading.Event] = {}

        # serializes apply_edits batches per service: the snapshot →
        # delta-count → install → cache-patch sequence must not
        # interleave with another batch (or a wholesale update_graph)
        # on the same graph
        self._edit_lock = threading.Lock()

        # keep graphs resident: pre-export the shared-memory segments so
        # the first pool request doesn't pay the copy
        if self.config.executor == "process":
            for host in self._hosts.values():
                export_graph(host.snapshot()[0])

    # -- graph hosting -----------------------------------------------------

    @property
    def graphs(self) -> tuple[str, ...]:
        return tuple(sorted(self._hosts))

    def graph_version(self, name: str) -> int:
        return self._host(name).version

    def _host(self, name: str) -> GraphHost:
        host = self._hosts.get(name)
        if host is None:
            raise KeyError(
                f"graph {name!r} is not hosted (have: {', '.join(self.graphs)})")
        return host

    def update_graph(self, name: str, graph: "CSRGraph") -> int:
        """Replace a hosted graph: bump its version, purge the *old*
        version's result-cache entries, pre-export the new segments.
        In-flight requests finish on their snapshot and honestly name
        the old version; entries of other (still-named) versions are
        left alone."""
        host = self._host(name)
        with self._edit_lock:
            old_version = host.version
            version = host.update(graph)
            self._cache.invalidate_graph(name, version=old_version)
        if self.config.executor == "process":
            export_graph(graph)
        return version

    def apply_edits(
        self,
        name: str,
        inserts: "Any" = (),
        deletes: "Any" = (),
    ) -> EditReport:
        """Apply one edge-edit batch to a hosted graph.

        Bumps the graph version to a compacted post-edit CSR, then —
        instead of dropping every cached count — *patches forward* the
        old version's exact entries it can prove correct: for each
        distinct cached query, one incremental
        :func:`repro.dynamic.count_delta` prices the batch, and every
        config variant of that query gets ``old_count + delta.net``
        re-cached under the new version.  Entries it cannot patch
        (vertex-induced counts, unsupported query shapes, budget caps
        the new count would exceed) are simply dropped with the old
        version.  A batch that normalizes to a no-op leaves the version
        untouched.
        """
        from repro.dynamic import EditBatch, OverlayGraph, count_delta

        host = self._host(name)
        t0 = time.monotonic()
        batch = EditBatch.from_lists(inserts=inserts, deletes=deletes)
        with self._edit_lock:
            graph, old_version = host.snapshot()
            eff = batch.normalized_against(graph)
            if eff.empty:
                return EditReport(
                    graph=name, old_version=old_version,
                    new_version=old_version, num_inserts=0, num_deletes=0,
                    entries_patched=0, entries_invalidated=0, anchor_runs=0,
                    wall_s=time.monotonic() - t0)
            entries = self._cache.entries(name, old_version)
            # one delta per distinct query covers every config variant:
            # max_degree is identity-preserving and a max_results cap
            # only matters if the new count would hit it
            deltas: dict[Any, Any] = {}
            mutated: "OverlayGraph | None" = None
            anchor_runs = 0
            for (_, _, query, vertex_induced, _), _count in entries:
                if vertex_induced or query in deltas:
                    continue
                try:
                    delta, ov = count_delta(
                        graph, query, eff,
                        self.config.with_(max_results=None))
                except NotImplementedError:
                    deltas[query] = None
                    continue
                deltas[query] = delta
                anchor_runs += delta.anchor_runs
                mutated = ov if mutated is None else mutated
            if mutated is None:
                mutated = OverlayGraph.from_edits(graph, eff)
            new_graph = mutated.compact()
            new_version = host.update(new_graph)
            patched = 0
            for (gname, _, query, vertex_induced, cfgkey), count in entries:
                delta = None if vertex_induced else deltas.get(query)
                if delta is None:
                    continue
                new_count = count + delta.net
                max_results = cfgkey[0]
                if max_results is not None and new_count >= max_results:
                    # the cap the entry was computed under could now
                    # truncate; an exact claim is no longer safe
                    continue
                self._cache.put(
                    (gname, new_version, query, vertex_induced, cfgkey),
                    new_count)
                patched += 1
            invalidated = self._cache.invalidate_graph(
                name, version=old_version)
        if self.config.executor == "process":
            export_graph(new_graph)
        return EditReport(
            graph=name, old_version=old_version, new_version=new_version,
            num_inserts=int(eff.inserts.shape[0]),
            num_deletes=int(eff.deletes.shape[0]),
            entries_patched=patched, entries_invalidated=invalidated,
            anchor_runs=anchor_runs, wall_s=time.monotonic() - t0)

    # -- request path ------------------------------------------------------

    def match(self, request: MatchRequest) -> MatchResponse:
        """Serve one request (blocking; thread-safe)."""
        t0 = time.monotonic()
        deadline_s = (request.deadline_s if request.deadline_s is not None
                      else self.default_deadline_s)
        deadline = None if deadline_s is None else t0 + deadline_s
        rid = self._next_id()
        host = self._host(request.graph)

        key = request.idempotency_key
        if key is None:
            return self._admit_and_execute(request, rid, host, deadline, t0)

        # idempotency first — a remembered key is served before
        # admission so it can never be shed after committing (X511)
        while True:
            with self._idem_lock:
                remembered = self._idem_window.get(key)
                if remembered is not None:
                    self._idem_window.move_to_end(key)
                    self._emit("request_replay", ("request", key))
                    self._bump("total")
                    self._bump("ok")
                    self._bump("replayed")
                    if remembered.exact:
                        self._bump("exact")
                    if remembered.degraded:
                        self._bump("degraded")
                    return replace(
                        remembered, request_id=rid,
                        served_from="idempotency",
                        wall_ms=(time.monotonic() - t0) * 1e3)
                gate = self._idem_executing.get(key)
                if gate is None:
                    gate = threading.Event()
                    self._idem_executing[key] = gate
                    break
            # the same key is executing on another thread: wait for it,
            # then loop back to serve the replay
            remaining = None if deadline is None else deadline - time.monotonic()
            expired = remaining is not None and remaining <= 0
            if expired or not gate.wait(timeout=remaining):
                # shed under the *request id*, not the idempotency key:
                # the other thread may commit the key concurrently, and
                # a shed event after its commit would trip X511
                return self._finish_shed(
                    request, rid, host, ResponseStatus.DEADLINE_EXCEEDED,
                    "deadline expired waiting for the in-flight execution "
                    "of the same idempotency key", t0, token=rid)
        try:
            response = self._admit_and_execute(request, rid, host, deadline, t0)
            if response.status == ResponseStatus.OK:
                self._remember(key, response)
            return response
        finally:
            with self._idem_lock:
                self._idem_executing.pop(key, None)
            gate.set()

    def _admit_and_execute(
        self,
        request: MatchRequest,
        rid: str,
        host: GraphHost,
        deadline: float | None,
        t0: float,
    ) -> MatchResponse:
        if not self._slots.acquire(blocking=False):
            return self._finish_shed(
                request, rid, host, ResponseStatus.REJECTED_OVERLOAD,
                f"queue full ({self.queue_depth} requests in flight)", t0)
        policy = self._tenants.get(request.tenant, self._default_policy)
        try:
            with self._state_lock:
                inflight = self._tenant_inflight.get(request.tenant, 0)
                if (policy.max_concurrency is not None
                        and inflight >= policy.max_concurrency):
                    shed_reason = (
                        f"tenant {request.tenant!r} at its concurrency "
                        f"limit ({policy.max_concurrency})")
                elif (policy.cycle_quota is not None
                      and self._tenant_cycles.get(request.tenant, 0.0)
                      >= policy.cycle_quota):
                    shed_reason = (
                        f"tenant {request.tenant!r} exhausted its cycle "
                        f"quota ({policy.cycle_quota:.0f})")
                else:
                    shed_reason = None
                    self._tenant_inflight[request.tenant] = inflight + 1
                    self._in_flight += 1
            if shed_reason is not None:
                return self._finish_shed(
                    request, rid, host, ResponseStatus.REJECTED_TENANT,
                    shed_reason, t0)
            try:
                self._emit("request_admit", ("request", self._token(request, rid)),
                           tenant=request.tenant)
                return self._execute(request, rid, host, policy, deadline, t0)
            finally:
                with self._state_lock:
                    self._tenant_inflight[request.tenant] -= 1
                    self._in_flight -= 1
        finally:
            self._slots.release()

    # -- execution ---------------------------------------------------------

    def _execute(
        self,
        request: MatchRequest,
        rid: str,
        host: GraphHost,
        policy: TenantPolicy,
        deadline: float | None,
        t0: float,
    ) -> MatchResponse:
        graph, version = host.snapshot()
        cfg = self.config.with_budget(policy.budget).with_budget(request.budget)
        plan = cached_plan(graph, request.query,
                           vertex_induced=request.vertex_induced,
                           code_motion=cfg.code_motion)
        ckey = ResultCache.key(request.graph, version, request.query,
                               request.vertex_induced, cfg)
        cached = self._cache.get(ckey)
        if cached is not None:
            return self._finish_served(
                request, rid, version, policy,
                matches=cached, exact=True, degraded=False, level=0,
                detail="", run=None, attempts=0, served_from="cache", t0=t0)

        token = self._token(request, rid)
        executor, num_workers = resolve_execution(cfg)
        use_pool = executor == "process"
        level, reason = self._choose_level(use_pool)
        attempts = 0
        run: RunResult | None = None
        detail_parts: list[str] = [reason] if reason else []

        if level == 0 and use_pool:
            run, attempts, pool_detail = self._run_pool(
                graph, plan, cfg, token, num_workers, deadline,
                self._count_only(request, graph, policy, cfg))
            if run is not None and not is_pool_infra_failure(run):
                return self._finish_run(request, rid, version, policy, cfg,
                                        ckey, run, degraded=False, level=0,
                                        detail="", attempts=attempts, t0=t0)
            if deadline is not None and time.monotonic() >= deadline:
                return self._finish_shed(
                    request, rid, host, ResponseStatus.DEADLINE_EXCEEDED,
                    pool_detail or "deadline expired during pool retries", t0)
            level = 1
            detail_parts.append(pool_detail or "process pool unavailable")
            if self.breaker.state != BreakerState.CLOSED and self._pressured():
                level = 2
                detail_parts.append("queue pressure with the breaker open")
        elif level == 1 and self.breaker.state == BreakerState.OPEN \
                and self._pressured():
            level = 2

        if deadline is not None and time.monotonic() >= deadline:
            # an in-thread run cannot be preempted, so refuse to start
            # one the deadline has already passed
            return self._finish_shed(
                request, rid, host, ResponseStatus.DEADLINE_EXCEEDED,
                "deadline expired before execution could start", t0)
        if level >= 2:
            cfg = cfg.with_budget(self._degrade_budget)
        if level >= 1:
            cfg = cfg.with_(codegen=False)
        # rungs 1-2 (and rung 0 under a serial executor): the request's
        # attempt-0 shard, run in the request thread
        shard = self._shard(token, 0, self._count_only(request, graph, policy, cfg))
        run = run_shards(graph, plan, cfg, [shard],
                         num_workers=1, fault_plan=self._fault_plan)[0]
        attempts += 1
        degraded = level > 0
        detail = "; ".join(p for p in detail_parts if p)
        if degraded and not detail:
            detail = "stepped down the execution ladder"
        return self._finish_run(request, rid, version, policy, cfg, ckey, run,
                                degraded=degraded, level=level, detail=detail,
                                attempts=attempts, t0=t0)

    def _choose_level(self, use_pool: bool) -> tuple[int, str]:
        pressured = self._pressured()
        state = self.breaker.state if use_pool else BreakerState.CLOSED
        if use_pool and state == BreakerState.OPEN:
            if pressured:
                return 2, "circuit breaker open + queue pressure"
            return 1, "circuit breaker open"
        if pressured:
            with self._state_lock:
                n = self._in_flight
            return 1, f"queue pressure ({n} requests in flight)"
        return 0, ""

    def _pressured(self) -> bool:
        if self._pressure_threshold is None:
            return False
        with self._state_lock:
            return self._in_flight >= self._pressure_threshold

    def _run_pool(
        self,
        graph: "CSRGraph",
        plan: Any,
        cfg: EngineConfig,
        token: str,
        num_workers: int,
        deadline: float | None,
        count_only: bool,
    ) -> tuple[RunResult | None, int, str]:
        """Rung 0: the process pool, breaker-guarded, seeded retry with
        exponential backoff + jitter on pool-infrastructure failures."""
        last: RunResult | None = None
        detail = ""
        attempts = 0
        for attempt in range(self.retry.max_attempts):
            if deadline is not None and time.monotonic() >= deadline:
                detail = detail or "deadline expired before a pool attempt"
                break
            if not self.breaker.allow():
                detail = ("; ".join((detail, "circuit breaker open"))
                          if detail else "circuit breaker open")
                break
            attempts += 1
            if attempt:
                self._bump("retries")
            remaining = None if deadline is None else max(
                0.001, deadline - time.monotonic())
            timeout = cfg.worker_timeout_s
            if remaining is not None:
                timeout = remaining if timeout is None else min(timeout, remaining)
            last = run_shards(
                graph, plan, cfg, [self._shard(token, attempt, count_only)],
                num_workers=num_workers,
                fault_plan=self._fault_plan, timeout_s=timeout,
                protocol_log=self._log, in_process_fallback=False)[0]
            if not is_pool_infra_failure(last):
                self.breaker.record_success()
                return last, attempts, ""
            self.breaker.record_failure(last.detail)
            detail = (f"pool attempt {attempt + 1}/{self.retry.max_attempts} "
                      f"failed: {last.detail}")
            rng = random.Random(f"{self.seed}:{token}:{attempt}")
            pause = self.retry.backoff_s(attempt, jitter_u=rng.random())
            if deadline is not None:
                pause = min(pause, max(0.0, deadline - time.monotonic()))
            if pause > 0:
                time.sleep(pause)
        return last, attempts, detail

    def _count_only(self, request: MatchRequest, graph: "CSRGraph",
                    policy: TenantPolicy, cfg: EngineConfig) -> bool:
        """Whether the exact count is all this run must produce, so the
        frontier answers it instead of the simulator: an exhaustive,
        undirected request with no armed fault plan, no sanitizer,
        observer or checkpoints, from a tenant not billed in cycles."""
        return (cfg.max_results is None
                and not (graph.directed or request.query.directed)
                and not self._chaos
                and not (cfg.sanitize or cfg.observe)
                and cfg.checkpoint_interval is None
                and policy.cycle_quota is None)

    def _shard(self, token: str, attempt: int, count_only: bool) -> ShardSpec:
        """The request's one shard at service attempt ``attempt``: the
        whole root range on device 0, through the recovery ladder when a
        chaos plan is armed so counts stay identical to the fault-free
        run, or on the frontier when ``count_only``."""
        return ShardSpec(
            index=0, device_id=0, recover=self._chaos,
            range_key=("serve", token) if self._chaos else None,
            attempt_offset=request_attempt_offset(token, attempt),
            max_retries=ATTEMPT_STRIDE - 1, count_only=count_only)

    # -- response assembly -------------------------------------------------

    def _finish_run(
        self,
        request: MatchRequest,
        rid: str,
        version: int,
        policy: TenantPolicy,
        cfg: EngineConfig,
        ckey: tuple,
        run: RunResult,
        *,
        degraded: bool,
        level: int,
        detail: str,
        attempts: int,
        t0: float,
    ) -> MatchResponse:
        self._charge(request.tenant, run)
        if not run.countable:
            status = (ResponseStatus.DEADLINE_EXCEEDED
                      if run.status == RunStatus.TIMEOUT
                      else ResponseStatus.FAILED)
            return self._finish_shed(
                request, rid, self._host(request.graph), status,
                "; ".join(p for p in (detail, run.detail) if p)
                or f"run ended {run.status}",
                t0, run=run, attempts=attempts)
        exact = run.status != RunStatus.BUDGET
        if run.status == RunStatus.BUDGET:
            budget = cfg.max_results
            truncated = f"budget-truncated at {budget} matches"
            detail = "; ".join(p for p in (detail, truncated) if p)
        if exact:
            self._cache.put(ckey, run.matches)
        return self._finish_served(
            request, rid, version, policy, matches=run.matches, exact=exact,
            degraded=degraded, level=level, detail=detail, run=run,
            attempts=attempts, served_from="engine", t0=t0)

    def _finish_served(
        self,
        request: MatchRequest,
        rid: str,
        version: int,
        policy: TenantPolicy,
        *,
        matches: int,
        exact: bool,
        degraded: bool,
        level: int,
        detail: str,
        run: RunResult | None,
        attempts: int,
        served_from: str,
        t0: float,
    ) -> MatchResponse:
        token = self._token(request, rid)
        response = MatchResponse(
            request_id=rid,
            tenant=request.tenant,
            graph=request.graph,
            graph_version=version,
            status=ResponseStatus.OK,
            matches=matches,
            exact=exact,
            degraded=degraded,
            degrade_level=level,
            detail=detail,
            run_status=str(run.status) if run is not None else "",
            cycles=run.cycles if run is not None else 0.0,
            sim_ms=run.sim_ms if run is not None else 0.0,
            wall_ms=(time.monotonic() - t0) * 1e3,
            attempts=attempts,
            served_from=served_from,
        )
        if request.idempotency_key is not None:
            # the ledger commit IS the exactly-once record; replays
            # never reach this path with the same key again while the
            # window remembers it (cache hits commit a synthetic result
            # so window eviction can forget the key either way)
            committed = run if run is not None else RunResult(
                system="stmatch", matches=matches, status=RunStatus.OK,
                detail=f"served from {served_from}")
            self._ledger.commit(("request", request.idempotency_key), committed)
        self._emit("request_commit", ("request", token),
                   matches=matches, exact=exact, degraded=degraded)
        self._bump("total")
        self._bump("ok")
        if exact:
            self._bump("exact")
        if degraded:
            self._bump("degraded")
        if served_from == "cache":
            self._bump("cached")
        return response

    def _finish_shed(
        self,
        request: MatchRequest,
        rid: str,
        host: GraphHost,
        status: str,
        detail: str,
        t0: float,
        run: RunResult | None = None,
        attempts: int = 0,
        token: str | None = None,
    ) -> MatchResponse:
        token = token or self._token(request, rid)
        self._emit("request_shed", ("request", token), status=status)
        self._bump("total")
        if status == ResponseStatus.REJECTED_OVERLOAD:
            self._bump("shed")
        elif status == ResponseStatus.REJECTED_TENANT:
            self._bump("rejected_tenant")
        elif status == ResponseStatus.DEADLINE_EXCEEDED:
            self._bump("deadline_exceeded")
        else:
            self._bump("failed")
        return MatchResponse(
            request_id=rid,
            tenant=request.tenant,
            graph=request.graph,
            graph_version=host.version,
            status=status,
            detail=detail,
            run_status=str(run.status) if run is not None else "",
            wall_ms=(time.monotonic() - t0) * 1e3,
            attempts=attempts,
        )

    # -- bookkeeping -------------------------------------------------------

    def _token(self, request: MatchRequest, rid: str) -> str:
        return request.idempotency_key or rid

    def _next_id(self) -> str:
        with self._state_lock:
            self._seq += 1
            return f"r{self._seq:06d}"

    def _bump(self, counter: str) -> None:
        with self._state_lock:
            self._counters[counter] += 1

    def _emit(self, kind: str, key: tuple, **data: Any) -> None:
        if self._log is not None:
            self._log.emit(kind, key=key, **data)

    def _charge(self, tenant: str, run: RunResult) -> None:
        with self._state_lock:
            self._tenant_cycles[tenant] = (
                self._tenant_cycles.get(tenant, 0.0) + float(run.cycles))

    def _remember(self, key: str, response: MatchResponse) -> None:
        with self._idem_lock:
            self._idem_window[key] = response
            self._idem_window.move_to_end(key)
            while len(self._idem_window) > self._idempotency_window:
                old_key, _ = self._idem_window.popitem(last=False)
                # the evicted key may legitimately commit again later
                self._ledger.forget(("request", old_key))

    # -- telemetry ---------------------------------------------------------

    def tenant_usage(self, tenant: str) -> dict[str, Any]:
        with self._state_lock:
            return {
                "in_flight": self._tenant_inflight.get(tenant, 0),
                "cycles": self._tenant_cycles.get(tenant, 0.0),
            }

    def stats(self) -> dict[str, Any]:
        """JSON-ready service telemetry: request accounting, caches,
        pool registry, breaker state."""
        with self._state_lock:
            counters = dict(self._counters)
            in_flight = self._in_flight
        caches: dict[str, Any] = {"results": self._cache.stats()}
        for name, host in sorted(self._hosts.items()):
            graph, version = host.snapshot()
            caches[f"engine:{name}"] = {
                "version": version, **engine_cache_stats(graph)}
        return {
            "requests": counters,
            "in_flight": in_flight,
            "queue_depth": self.queue_depth,
            "idempotency_window": len(self._idem_window),
            "caches": caches,
            "pool": pool_stats(),
            "breaker": self.breaker.stats(),
        }
