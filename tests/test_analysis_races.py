"""Concurrency analyzer units + the mutation gate.

The mutation gate seeds the four protocol bugs the analyzer exists to
catch — a double re-queue, a checkpoint inside a donation window, a
stale operand alias in the lowered walk, a post-teardown absorb — and
asserts each one trips exactly the matching rule (X509, X508, L307, X510), while the
clean counterparts stay silent.
"""

from __future__ import annotations

import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.diagnostics import RULE_REGISTRY, Severity
from repro.analysis.races import (
    PROTOCOL_KINDS,
    ProtocolLog,
    VectorClock,
    analyze_run,
    check_lifetimes,
    check_protocol,
    check_trace_events,
    trace_events,
)
from repro.codemotion.depgraph import BaseKind
from repro.core.config import EngineConfig
from repro.obs import TraceCollector
from repro.pattern.motifs import QUERIES
from repro.pattern.plan import build_plan

SRC = Path(__file__).resolve().parents[1] / "src"


def warp(clock: float, block: int = 0, wid: int = 0) -> SimpleNamespace:
    """A stand-in with the three attributes the collector hooks read."""
    return SimpleNamespace(clock=clock, block_id=block, warp_id=wid)


def rules_of(report) -> set[str]:
    return {d.rule for d in report}


def errors_of(report) -> set[str]:
    return {d.rule for d in report if d.severity is Severity.ERROR}


# -- rule registry ----------------------------------------------------------


def test_registry_covers_every_rule_referenced_in_src():
    """Satellite: the single registry can never drift from the code —
    every P/S/L/B/X id mentioned anywhere under src/ must be registered."""
    pat = re.compile(r"\b([PSLBX][0-9]{3})\b")
    referenced = set()
    for f in SRC.rglob("*.py"):
        referenced |= set(pat.findall(f.read_text()))
    assert referenced, "rule-id scan found nothing — pattern broken?"
    unregistered = referenced - set(RULE_REGISTRY)
    assert not unregistered, f"rules referenced but not registered: {sorted(unregistered)}"


def test_registry_entries_have_fix_hints_for_new_rules():
    for rid in ("X507", "X508", "X509", "X510", "L305", "L306", "L307", "L308"):
        info = RULE_REGISTRY[rid]
        assert info.summary and info.fix_hint, rid


# -- vector clocks ----------------------------------------------------------


def test_vector_clock_ordering_and_concurrency():
    a, b = VectorClock(), VectorClock()
    a.tick(("w", 0, 0))
    assert not a <= b and b <= a
    b.join(a)
    b.tick(("w", 0, 1))
    assert a <= b and not b <= a  # a happens-before b
    c = VectorClock()
    c.tick(("w", 1, 0))
    assert c.concurrent_with(b) and c.concurrent_with(a)
    assert not a.concurrent_with(b)


# -- protocol log -----------------------------------------------------------


def test_protocol_log_validates_kinds_and_orders_seq():
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(0, 2), device_id=0)
    log.emit("shard_result", key=(0, 2), countable=True)
    with pytest.raises(ValueError):
        log.emit("not_a_kind")
    assert [e.seq for e in log] == [0, 1]
    assert len(log.by_kind("shard_dispatch")) == 1
    assert log.by_kind("shard_dispatch")[0].key == (0, 2)
    assert PROTOCOL_KINDS >= {e.kind for e in log}


def clean_two_shard_log() -> ProtocolLog:
    log = ProtocolLog()
    for d in range(2):
        log.emit("shard_dispatch", key=(d, 2), device_id=d)
    for d in range(2):
        log.emit("shard_result", key=(d, 2), countable=True, status="ok")
        log.emit("ledger_commit", key=(d, 2), matches=10 + d)
    return log


def test_clean_protocol_log_has_no_findings():
    assert not list(check_protocol(clean_two_shard_log()))


def test_clean_requeue_after_failure_has_no_findings():
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(0, 1), device_id=0)
    log.emit("ledger_failure", key=(0, 1), status="failed")
    log.emit("shard_result", key=(0, 1), countable=False, status="failed")
    log.emit("shard_requeue", key=(0, 1), device_id=1)
    log.emit("shard_dispatch", key=(0, 1), device_id=1)
    log.emit("shard_result", key=(0, 1), countable=True, status="ok")
    log.emit("ledger_commit", key=(0, 1), matches=7)
    assert not list(check_protocol(log))


# -- mutation gate: X509 (double re-queue / double count) -------------------


def test_seeded_double_requeue_trips_x509():
    """Bug #1: the coordinator re-queues a shard whose original already
    produced a countable result — both executions would be summed."""
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(0, 1), device_id=0)
    log.emit("shard_result", key=(0, 1), countable=True, status="ok")
    log.emit("ledger_commit", key=(0, 1), matches=42)
    log.emit("shard_requeue", key=(0, 1), device_id=1)   # races the completion
    log.emit("shard_dispatch", key=(0, 1), device_id=1)  # committed range!
    log.emit("ledger_commit", key=(0, 1), matches=42)    # second commit
    rep = check_protocol(log)
    assert errors_of(rep) == {"X509"}
    assert len(rep.by_rule("X509")) >= 3  # requeue + re-dispatch + double commit


def test_requeue_without_observed_failure_trips_x509():
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(0, 1), device_id=0)
    log.emit("shard_requeue", key=(0, 1), device_id=1)
    assert errors_of(check_protocol(log)) == {"X509"}


# -- mutation gate: X510 (post-teardown absorb) -----------------------------


def test_seeded_post_teardown_absorb_trips_x510():
    """Bug #2: a worker result is absorbed after its pool was torn down
    and no shard result was ever collected — the count has no provenance."""
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(1, 2), device_id=1)
    log.emit("pool_teardown", reason="dead worker")
    log.emit("ledger_absorb", key=(1, 2), countable=True, matches=9)
    rep = check_protocol(log)
    assert "X510" in errors_of(rep)


def test_absorb_after_teardown_with_collected_result_is_clean():
    """The runtime's actual sequence — result collected, then teardown,
    then absorb — has provenance and must stay silent."""
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(1, 2), device_id=1)
    log.emit("shard_result", key=(1, 2), countable=True, status="ok")
    log.emit("pool_teardown", reason="dead worker elsewhere")
    log.emit("ledger_absorb", key=(1, 2), countable=True, matches=9)
    assert not list(check_protocol(log))


# -- mutation gate: X511 (request-scoped exactly-once) ----------------------


KEY = ("request", "retry-1")


def test_clean_request_lifecycle_is_silent():
    """admit → commit → replay (a retried client) is the contract."""
    log = ProtocolLog()
    log.emit("request_admit", key=KEY, tenant="t")
    log.emit("request_commit", key=KEY, matches=7, exact=True)
    log.emit("request_replay", key=KEY)
    log.emit("request_replay", key=KEY)  # replays may repeat freely
    assert not list(check_protocol(log))


def test_seeded_double_commit_trips_x511():
    """Bug: a retried request re-executed and committed twice — the
    client's idempotent retry was double-counted."""
    log = ProtocolLog()
    log.emit("request_admit", key=KEY)
    log.emit("request_commit", key=KEY, matches=7)
    log.emit("request_commit", key=KEY, matches=7)
    assert errors_of(check_protocol(log)) == {"X511"}


def test_seeded_replay_without_commit_trips_x511():
    """Bug: a replay served from the window for a key that never
    committed — the response has no provenance."""
    log = ProtocolLog()
    log.emit("request_replay", key=KEY)
    assert errors_of(check_protocol(log)) == {"X511"}


def test_seeded_shed_after_commit_trips_x511():
    """Bug: a retry of an already-counted request was shed — the client
    sees a rejection for work that was counted."""
    log = ProtocolLog()
    log.emit("request_commit", key=KEY, matches=7)
    log.emit("request_shed", key=KEY, status="rejected_overload")
    assert errors_of(check_protocol(log)) == {"X511"}


def test_forget_resets_the_request_key():
    """Window eviction (ledger_forget) makes the key a stranger again:
    a later commit or shed is legitimate, a later replay is not."""
    log = ProtocolLog()
    log.emit("request_commit", key=KEY, matches=7)
    log.emit("ledger_forget", key=KEY)
    log.emit("request_shed", key=KEY, status="rejected_overload")
    log.emit("request_commit", key=KEY, matches=7)
    assert not list(check_protocol(log))
    log.emit("ledger_forget", key=KEY)
    log.emit("request_replay", key=KEY)
    assert errors_of(check_protocol(log)) == {"X511"}


def test_x511_registered_with_fix_hint():
    info = RULE_REGISTRY["X511"]
    assert info.summary and info.fix_hint


# -- mutation gate: X508 (checkpoint inside a donation window) --------------


def test_seeded_checkpoint_during_donation_trips_x508():
    """Bug #3: capture between divide_and_copy and the board deposit —
    the snapshot sees the divided donor stack but no board slot."""
    col = TraceCollector(keep_events=True)
    donor = warp(10.0, block=0, wid=0)
    col.on_divide(donor, copied_elems=6)           # window opens...
    col.on_checkpoint(warp(12.0, block=1, wid=0), chunks_served=3, matches=0)
    rep = check_trace_events(col)
    assert errors_of(rep) == {"X508"}
    (d,) = rep.by_rule("X508")
    assert "divide" in d.message and "deposit" in d.message


def test_checkpoint_after_push_closes_window_and_is_clean():
    col = TraceCollector(keep_events=True)
    donor = warp(10.0, block=0, wid=0)
    col.on_divide(donor, copied_elems=6)
    col.on_steal("global_push", donor, copied_elems=6, target_block=1)
    col.on_checkpoint(warp(12.0, block=1, wid=0), chunks_served=3, matches=0)
    assert not list(check_trace_events(col))


def test_lost_push_also_closes_the_donation_window():
    col = TraceCollector(keep_events=True)
    donor = warp(10.0, block=0, wid=0)
    col.on_divide(donor, copied_elems=6)
    col.on_steal_lost(donor, copied_elems=6)  # message dropped: donor re-absorbs
    col.on_checkpoint(warp(12.0, block=1, wid=0), chunks_served=3, matches=0)
    assert not list(check_trace_events(col))


# -- X507 (take not ordered after its deposit) ------------------------------


def test_take_timestamped_before_its_push_trips_x507():
    col = TraceCollector(keep_events=True)
    donor = warp(100.0, block=0, wid=0)
    col.on_divide(donor, copied_elems=8)
    col.on_steal("global_push", donor, copied_elems=8, target_block=1)
    # the thief consumes the frames without syncing past the deposit clock
    col.on_steal("global_take", warp(50.0, block=1, wid=0), copied_elems=8,
                 donor_block=0, donor_warp=0)
    rep = check_trace_events(col)
    assert errors_of(rep) == {"X507"}


def test_properly_synced_take_is_clean():
    col = TraceCollector(keep_events=True)
    donor = warp(100.0, block=0, wid=0)
    col.on_divide(donor, copied_elems=8)
    col.on_steal("global_push", donor, copied_elems=8, target_block=1)
    col.on_steal("global_take", warp(100.0, block=1, wid=0), copied_elems=8,
                 donor_block=0, donor_warp=0)
    assert not list(check_trace_events(col))


def test_take_with_no_deposit_in_stream_warns_x507():
    col = TraceCollector(keep_events=True)
    col.on_steal("global_take", warp(5.0, block=1, wid=0), copied_elems=8)
    rep = check_trace_events(col)
    (d,) = list(rep)
    assert d.rule == "X507" and d.severity is Severity.WARNING


def test_trace_events_filters_to_checker_kinds():
    col = TraceCollector(keep_events=True)
    w = warp(1.0)
    col.on_chunk(w, 0, 4, 4)
    col.on_idle_poll(w)          # not a checker kind
    col.on_local_attempt(w)      # not a checker kind
    col.on_divide(w, 2)
    kinds = [e.kind for e in trace_events(col)]
    assert kinds == ["chunk", "divide"]


def test_analyze_run_merges_both_sources():
    col = TraceCollector(keep_events=True)
    col.on_divide(warp(10.0), copied_elems=6)
    col.on_checkpoint(warp(12.0, block=1), chunks_served=1, matches=0)
    log = ProtocolLog()
    log.emit("shard_dispatch", key=(0, 1), device_id=0)
    log.emit("shard_requeue", key=(0, 1), device_id=1)
    rep = analyze_run(trace=col, protocol_log=log, subject="merged")
    assert errors_of(rep) == {"X508", "X509"}


# -- lifetime rules over real plans -----------------------------------------


@pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q5", "q6"])
def test_builtin_plans_pass_lifetime_rules(name):
    plan = build_plan(QUERIES[name])
    rep = check_lifetimes(plan.program, EngineConfig())
    assert not list(rep), rep.render(min_severity=Severity.NOTE)


def test_l308_notes_sanitizer_disables_count_only_leaves():
    plan = build_plan(QUERIES["q3"])
    rep = check_lifetimes(plan.program, EngineConfig(sanitize=True))
    (d,) = list(rep)
    assert d.rule == "L308" and d.severity is Severity.NOTE


# -- mutation gate: L305–L308 on a deliberately broken program --------------


def test_mutated_candidate_read_outside_live_interval_trips_l305():
    prog = build_plan(QUERIES["q2"]).program
    # level 1 now iterates the leaf set, computed only at level 4
    prog.candidate_of_level[1] = 4
    assert "L305" in errors_of(check_lifetimes(prog))


def test_mutated_dependency_level_trips_l306():
    prog = build_plan(QUERIES["q3"]).program
    # S2/S3 (level 1) REF S1; push S1's claimed level past its consumers
    prog.recipes[1] = replace(prog.recipes[1], level=2)
    assert "L306" in errors_of(check_lifetimes(prog))


def test_mutated_candidate_mapping_trips_l306():
    prog = build_plan(QUERIES["q3"]).program
    prog.candidate_of_level[2] = 3  # recipe 3 claims is_candidate_for=3
    assert "L306" in errors_of(check_lifetimes(prog))


def test_seeded_stale_fastpath_operand_alias_trips_l307():
    """Bug #4: a same-level REF dependency scheduled *after* its
    consumer — the memoized operand slot holds the previous iteration's
    value when the consumer reads it."""
    prog = build_plan(QUERIES["q3"]).program
    assert prog.sets_at_level[1] == [1, 2, 3]  # S2, S3 REF same-level S1
    prog.sets_at_level[1] = [2, 3, 1]          # dependency now last
    rep = check_lifetimes(prog)
    assert errors_of(rep) == {"L307"}
    assert len(rep.by_rule("L307")) == 2       # both consumers read stale S1


def test_same_level_ref_unscheduled_trips_l307():
    prog = build_plan(QUERIES["q3"]).program
    prog.sets_at_level[1] = [2, 3]  # S1 vanished from its level's schedule
    assert "L307" in errors_of(check_lifetimes(prog))


def test_leaf_with_consumers_trips_l308():
    prog = build_plan(QUERIES["q2"]).program
    leaf = prog.candidate_of_level[prog.num_levels - 1]
    # graft a consumer onto the count-only leaf
    prog.recipes[3] = replace(prog.recipes[3], base=BaseKind.REF, base_arg=leaf)
    assert "L308" in errors_of(check_lifetimes(prog))
