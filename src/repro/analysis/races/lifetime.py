"""Static lifetime / aliasing rules over the plan IR (L305–L308).

The dynamic happens-before checker (:mod:`.hb`) catches ordering bugs
on schedules that actually ran; these rules flag the *same hazard
class* pre-launch, from the :class:`~repro.codemotion.depgraph.SetProgram`
lifetime metadata alone:

L305
    A set is read (as a level's candidate list or as a REF operand) at
    a level outside its ``live_sets_at`` interval — its slot may
    already have been reused by the time the read happens.
L306
    Lifetime inversion: ``last_use_level`` / the iteration schedule
    disagree with ``dependency_edges`` — a dependency is computed after
    its consumer, or a level iterates a set whose recipe does not claim
    that level, so liveness is computed from stale metadata.
L307
    Fastpath operand memoization aliases a written slot: within one
    level the kernel memoizes operand slots in schedule order, so a
    same-level REF dependency scheduled *after* its consumer hands the
    consumer a stale (previous-iteration) value of the slot.
L308
    Count-only-leaf eligibility contradicts the consumers the plan
    declares (a read-back of a never-materialized leaf) or the
    sanitizer requirements the config requests.

Overlap with the structural P-rules is intentional: a broken program
usually violates both the structural invariant and the lifetime story,
and callers filtering for concurrency rules must still see the hazard.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.codemotion.depgraph import BaseKind, SetProgram

from ..diagnostics import DiagnosticReport, Severity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig

__all__ = ["check_lifetimes"]


def check_lifetimes(
    program: SetProgram,
    config: "EngineConfig | None" = None,
    subject: str = "plan",
) -> DiagnosticReport:
    """Run the L305–L308 lifetime/aliasing rules over ``program``."""
    rep = DiagnosticReport(subject=subject)
    n = program.num_sets

    # -- gather every (reader level, set id, what-kind-of-read) ---------
    reads: list[tuple[int, int, str]] = []
    for lvl, sid in enumerate(program.candidate_of_level):
        if 0 <= sid < n:
            reads.append((lvl, sid, "candidate iteration"))
    for lvl, scheduled in enumerate(program.sets_at_level):
        for sid in scheduled:
            r = program.recipes[sid]
            if r.base is BaseKind.REF and 0 <= r.base_arg < n:
                reads.append((lvl, r.base_arg, f"REF operand of S{sid}"))

    # L305: every read must land inside the read set's live interval
    for lvl, sid, why in reads:
        r = program.recipes[sid]
        first, last = r.level, program.last_use_level(sid)
        if not first <= lvl <= last:
            rep.add(
                "L305", Severity.ERROR, f"S{sid}",
                f"set S{sid} is read at level {lvl} ({why}) but is only "
                f"live on levels [{first}, {last}] — its slot may be "
                "reused by the time the read executes",
                hint="recompute live_sets_at after editing the schedule, or "
                     "move the read inside the set's live interval",
            )

    # L306: lifetime metadata must agree with the dependence DAG and
    # with the iteration schedule it is derived from
    for consumer, dep in program.dependency_edges():
        if not 0 <= dep < n:
            continue  # dangling REF is P102's finding
        c_level = program.recipes[consumer].level
        if program.recipes[dep].level > c_level:
            rep.add(
                "L306", Severity.ERROR, f"S{consumer}",
                f"dependency S{dep} is computed at level "
                f"{program.recipes[dep].level}, after its consumer "
                f"S{consumer} at level {c_level}",
                hint="a REF dependency must be computed no later than its "
                     "consumer's level",
            )
        elif program.last_use_level(dep) < c_level:
            rep.add(
                "L306", Severity.ERROR, f"S{dep}",
                f"last_use_level(S{dep}) = {program.last_use_level(dep)} "
                f"but dependency_edges records a consumer S{consumer} at "
                f"level {c_level} — liveness is computed from stale "
                "metadata",
                hint="keep last_use_level consistent with dependency_edges",
            )
    for lvl, sid in enumerate(program.candidate_of_level):
        if 0 <= sid < n and program.recipes[sid].is_candidate_for != lvl:
            rep.add(
                "L306", Severity.ERROR, f"S{sid}",
                f"level {lvl} iterates S{sid} but its recipe claims "
                f"is_candidate_for={program.recipes[sid].is_candidate_for}: "
                "last_use_level extends liveness to the wrong level",
                hint="keep candidate_of_level and is_candidate_for in sync",
            )

    # L307: same-level REF dependency must be scheduled before its
    # consumer — the lowered walk memoizes operand slots in schedule order
    for lvl, scheduled in enumerate(program.sets_at_level):
        pos = {sid: i for i, sid in enumerate(scheduled)}
        for sid in scheduled:
            r = program.recipes[sid]
            if r.base is not BaseKind.REF or not 0 <= r.base_arg < n:
                continue
            dep = r.base_arg
            if program.recipes[dep].level != lvl:
                continue
            if dep not in pos:
                rep.add(
                    "L307", Severity.ERROR, f"S{sid}",
                    f"S{sid} REFs same-level set S{dep}, which is not "
                    f"scheduled at level {lvl}: the memoized operand slot "
                    "it would read belongs to another level's frame",
                    hint="schedule a same-level REF dependency at the same "
                         "level as its consumer",
                )
            elif pos[dep] > pos[sid]:
                rep.add(
                    "L307", Severity.ERROR, f"S{sid}",
                    f"S{sid} (position {pos[sid]} at level {lvl}) REFs "
                    f"S{dep}, scheduled later (position {pos[dep]}): the "
                    "lowered walk memoizes operand slots in schedule order, so "
                    f"S{sid} reads the stale previous-iteration value of "
                    f"S{dep}'s slot",
                    hint="schedule a same-level REF dependency before its "
                         "consumer so the memoized operand is fresh",
                )

    # L308: count-only-leaf eligibility
    if program.num_levels > 0:
        leaf_level = program.num_levels - 1
        leaf = program.candidate_of_level[leaf_level]
        if 0 <= leaf < n:
            eaters = program.consumers(leaf)
            if eaters:
                rep.add(
                    "L308", Severity.ERROR, f"S{leaf}",
                    f"leaf candidate set S{leaf} has REF consumers "
                    f"{['S%d' % s for s in eaters]}: a count-only leaf is "
                    "never materialized, so those reads see garbage",
                    hint="a leaf with consumers must be materialized — drop "
                         "the consumers",
                )
    if config is not None and getattr(config, "sanitize", False):
        rep.add(
            "L308", Severity.NOTE, "config",
            "the sanitizer requires materialized leaf candidates to "
            "audit: the kernel disables the count-only leaf under "
            "sanitize=True on every tier",
            hint="benchmark with sanitize=False; audit with the "
                 "understanding that count-only leaves are off",
        )
    return rep
