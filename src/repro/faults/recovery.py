"""Failure-aware execution: retry, resume, degrade (the recovery ladder).

The paper's design makes recovery cheap — the whole launch state is the
explicit stack plus the root counter (see :mod:`repro.core.checkpoint`)
— but correctness under recovery is a *counting* problem: a re-executed
range must contribute its matches exactly once.  This module owns that
discipline:

* :func:`run_with_recovery` drives one root range through a retry
  ladder: resume from the last checkpoint after a fail-stop or
  watchdog kill; plain retry after a (possibly transient) OOM; then
  degrade — halve ``UNROLL`` (shrinks the candidate stack ``C``
  linearly, Sec. VIII-A), then rebuild the plan with merged label sets
  (Fig. 10b: one set per distinct label instead of one per query
  vertex) — before giving up with a non-empty failure trail.
* :class:`RecoveryLedger` enforces sanitizer rule **X506**: every
  logical range commits exactly once, and a dead launch never exposes
  a partial count.  Violations raise
  :class:`~repro.analysis.sanitizer.SanitizerError` like every other
  protocol breach.

Counts are invariant under the whole ladder: checkpoints resume the
exact counter position, ``UNROLL`` is a pure performance knob, and
merged-vs-split label sets are semantics-preserving by construction —
so a ``RECOVERED`` run reports *exactly* the fault-free count (the
chaos sweep asserts this per seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Protocol

from repro.analysis.sanitizer import SanitizerError
from repro.core.config import EngineConfig
from repro.core.counters import RunResult, RunStatus
from repro.core.engine import STMatchEngine
from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan, build_plan
from repro.pattern.query import QueryGraph
from repro.virtgpu.device import VirtualDevice

from .plan import FaultPlan

__all__ = ["RecoveryLedger", "run_with_recovery"]


RangeKey = tuple  # (owner, num_owners) shard or (start, end) slice


class SupportsEmit(Protocol):
    """Structural type of a protocol log (``repro.analysis.races``).

    Runtime packages stay duck-typed — they never import the analysis
    layer — but the structural protocol lets strict type checking see
    the ``emit`` contract both sides agree on.
    """

    def emit(self, kind: str, key: tuple | None = None, **data: Any) -> Any: ...


@dataclass
class RecoveryLedger:
    """X506 bookkeeping: one commit per logical root range, ever.

    ``commit`` records the matches of a range's *successful* execution;
    committing the same range twice is exactly the double-count X506
    forbids.  ``observe_failure`` checks the other half of the
    discipline: a launch that died (FAILED/TIMEOUT/OOM) must not expose
    a partial count — recovery re-derives progress from the checkpoint,
    never from a dead launch's accumulator.
    """

    committed: dict[RangeKey, int] = field(default_factory=dict)
    num_failures: int = 0
    log: SupportsEmit | None = None
    #   optional protocol log (duck-typed: anything with an
    #   ``emit(kind, key=..., **data)`` method, e.g.
    #   repro.analysis.races.ProtocolLog).  Every commit / failure /
    #   absorb is recorded so the happens-before checker can audit the
    #   coordinator's ordering (rules X509/X510); None emits nothing.

    def _note(self, kind: str, key: RangeKey, **data: Any) -> None:
        if self.log is not None:
            self.log.emit(kind, key=key, **data)

    def commit(self, key: RangeKey, result: RunResult) -> None:
        self._note("ledger_commit", key, matches=result.matches)
        self._commit(key, result)

    def _commit(self, key: RangeKey, result: RunResult) -> None:
        if key in self.committed:
            raise SanitizerError(
                "X506", f"root range {key}",
                f"range committed twice ({self.committed[key]} then "
                f"{result.matches} matches) — a recovery re-executed an "
                "already-counted range",
                [],
            )
        self.committed[key] = result.matches

    def observe_failure(self, key: RangeKey, result: RunResult) -> None:
        self._note("ledger_failure", key, status=str(result.status))
        self._observe_failure(key, result)

    def _observe_failure(self, key: RangeKey, result: RunResult) -> None:
        self.num_failures += 1
        if result.matches:
            raise SanitizerError(
                "X506", f"root range {key}",
                f"a {result.status} launch exposed a partial count of "
                f"{result.matches} match(es) — dead launches must report 0",
                [],
            )
        if key in self.committed:
            raise SanitizerError(
                "X506", f"root range {key}",
                "a committed range was re-executed — recovery must only "
                "re-queue ranges that never completed",
                [],
            )

    def absorb(self, key: RangeKey, result: RunResult) -> None:
        """Mirror a shard's *final* result computed elsewhere.

        Shard execution (:mod:`repro.parallel`) runs
        ``run_with_recovery`` with a fresh local ledger per shard
        (preserving the per-attempt X506 checks), in-process or in a
        worker; the coordinator then absorbs the returned result here
        so the run's ledger records the shard's final outcome: one
        ``commit`` for a countable shard, one ``observe_failure``
        otherwise.  A failed result's partial count was already zeroed
        by the shard-side checks, so both X506 halves keep firing
        across process boundaries.
        """
        self._note("ledger_absorb", key, countable=result.countable,
                   matches=result.matches)
        # the absorb *is* the logical commit/failure — bookkeeping only,
        # no second protocol event for the same coordinator action
        if result.countable:
            self._commit(key, result)
        else:
            self._observe_failure(key, result)

    def forget(self, key: RangeKey) -> bool:
        """Drop a committed key from the ledger (bounded idempotency
        windows evicting old requests).

        After a ``forget`` the key may legitimately commit again — the
        request is a stranger to the ledger — so the eviction is itself
        a protocol event (``ledger_forget``): the happens-before
        checker needs it to tell a windowed re-commit from an X506/X511
        double count.  Returns whether the key was present.
        """
        if key not in self.committed:
            return False
        self._note("ledger_forget", key)
        del self.committed[key]
        return True

    @property
    def total_matches(self) -> int:
        return sum(self.committed.values())


def _merged_label_rebuild(plan: MatchingPlan, graph: CSRGraph) -> MatchingPlan | None:
    """The Fig. 10b fallback: replan with merged label sets.

    Returns the rebuilt plan when it genuinely shrinks the set count
    (and therefore the ``C``-stack footprint); ``None`` when the plan
    is already merged or unlabeled, i.e. no rung left on the ladder.
    """
    merged = build_plan(
        plan.original_query,
        data_graph=graph,
        vertex_induced=plan.vertex_induced,
        symmetry_breaking=plan.symmetry_breaking,
        code_motion=plan.code_motion,
        order=list(plan.order),
    )
    if merged.num_sets < plan.num_sets:
        return merged
    return None


def run_with_recovery(
    graph: CSRGraph,
    query: QueryGraph | MatchingPlan,
    config: EngineConfig | None = None,
    fault_plan: FaultPlan | None = None,
    device_id: int = 0,
    root_range: tuple[int, int] | None = None,
    root_partition: tuple[int, int] | None = None,
    root_vertices: tuple[int, int] | None = None,
    max_retries: int = 3,
    ledger: RecoveryLedger | None = None,
    range_key: RangeKey | None = None,
    attempt_offset: int = 0,
) -> RunResult:
    """Run one root range to completion through the recovery ladder.

    Each attempt runs on a fresh device replica (the paper replicates
    the graph per device, Sec. VIII-B) with the fault plan's injector
    for ``(device_id, attempt)`` armed.  Fail-stop and watchdog kills
    resume from the launch's last checkpoint; OOMs retry (transients
    clear on their own) and then degrade: halve ``unroll``, then merge
    label sets — both count-preserving, both invalidating any
    checkpoint (frame geometry changes).  Success after any failure
    reports ``RECOVERED`` with the attempt trail in ``detail``; an
    exhausted budget reports the last failure's status with the full
    trail (never an empty ``detail``).

    ``attempt_offset`` shifts the fault plan's attempt index: a
    survivor hosting a re-queued range has already consumed its own
    attempts, so its attempt-0 faults must not re-fire.
    """
    cfg = config or EngineConfig()
    engine = STMatchEngine(graph, cfg)
    plan = query if isinstance(query, MatchingPlan) else engine.plan(query)
    if range_key is None:
        range_key = root_partition or root_vertices or root_range or ("full", device_id)

    trail: list[str] = []
    checkpoint = None
    consecutive_ooms = 0
    last: RunResult | None = None
    for attempt in range(max_retries + 1):
        dev = VirtualDevice(cfg.device, device_id=device_id)
        if fault_plan is not None:
            dev.attach_injector(
                fault_plan.injector_for(device_id, attempt_offset + attempt)
            )
        res = engine.run(
            plan,
            root_range=root_range,
            root_partition=root_partition,
            root_vertices=root_vertices,
            device=dev,
            resume_from=checkpoint,
        )
        if res.countable:
            if ledger is not None:
                ledger.commit(range_key, res)
            if not trail:
                return res
            trail.append(f"attempt {attempt}: {res.status} "
                         f"({res.matches} matches)")
            status = RunStatus.RECOVERED if res.status == RunStatus.OK else res.status
            return replace(res, status=status, detail="; ".join(trail))
        last = res
        if ledger is not None:
            ledger.observe_failure(range_key, res)
        trail.append(f"attempt {attempt}: {res.status} — "
                     f"{res.detail or 'no detail'}")
        if res.status == RunStatus.OOM:
            consecutive_ooms += 1
            if consecutive_ooms == 1:
                continue  # plain retry: transient pressure clears on its own
            if cfg.unroll > 1:
                new_unroll = max(1, cfg.unroll // 2)
                trail.append(f"degrade: unroll {cfg.unroll} -> {new_unroll} "
                             "(halved C-stack)")
                cfg = cfg.with_(unroll=new_unroll)
                engine = STMatchEngine(graph, cfg)
                checkpoint = None  # frame geometry changed
                continue
            merged = _merged_label_rebuild(plan, graph)
            if merged is not None:
                trail.append(f"degrade: merged label sets "
                             f"({plan.num_sets} -> {merged.num_sets} sets, "
                             "Fig. 10b)")
                plan = merged
                checkpoint = None
                continue
            trail.append("degrade: ladder exhausted (unroll=1, merged sets)")
            break
        consecutive_ooms = 0
        # fail-stop / watchdog kill: resume from the newest checkpoint
        checkpoint = res.checkpoint or checkpoint
        if checkpoint is not None:
            trail.append(f"resume armed from checkpoint at "
                         f"{checkpoint.chunks_served} chunk(s)")
    final_status = last.status if last is not None else RunStatus.FAILED
    if final_status not in (RunStatus.OOM, RunStatus.TIMEOUT):
        final_status = RunStatus.FAILED
    return RunResult(
        system=engine.name,
        status=final_status,
        detail="; ".join(trail) or "retry budget exhausted",
        error=last.error if last is not None else None,
        checkpoint=checkpoint,
    )
