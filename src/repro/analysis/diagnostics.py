"""Structured diagnostics for the static analysis layers.

Every finding of the plan verifier (:mod:`repro.analysis.verify`) and
the resource linter (:mod:`repro.analysis.budget`) is a
:class:`Diagnostic`: a stable rule id, a severity, a location inside
the plan (a set id, a level, a config knob), a human-readable message
and — where the analysis can compute one — a concrete fix hint.
Diagnostics are collected into a :class:`DiagnosticReport` that the CLI
renders and tests assert on.

The rule catalog lives in :data:`RULE_REGISTRY` — the **single source
of truth** for every rule id the repo emits: the CLI's ``rules``
listing, the ``docs/ANALYSIS.md`` tables, :meth:`DiagnosticReport.add`
validation and the registry-coverage test all derive from it, so a new
rule can never be silently omitted from the catalog.  Rule ids are
append-only so downstream suppressions stay stable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = [
    "Severity",
    "Diagnostic",
    "DiagnosticReport",
    "PlanVerificationError",
    "RuleInfo",
    "RULE_REGISTRY",
    "RULE_CATALOG",
]


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered so ``max()`` picks the worst."""

    NOTE = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error", not "Severity.ERROR"
        return self.name.lower()


@dataclass(frozen=True)
class RuleInfo:
    """Registry entry for one diagnostic rule.

    ``owner`` names the module that emits the rule, ``category`` the
    rule family (used to group the CLI/doc listings), ``fix_hint`` a
    one-line generic remediation rendered in ``docs/ANALYSIS.md`` —
    individual diagnostics may carry a sharper, computed hint.
    """

    rule: str
    summary: str
    category: str
    owner: str
    fix_hint: str


def _rules(category: str, owner: str, entries: dict[str, tuple[str, str]]) -> list[RuleInfo]:
    return [
        RuleInfo(rule=rid, summary=summary, category=category, owner=owner, fix_hint=hint)
        for rid, (summary, hint) in entries.items()
    ]


#: The single source of truth for every rule id the repo emits.  The
#: verifier owns P* (program structure), S* (symmetry restrictions) and
#: L30x (label filters); the lifetime/aliasing pass owns L305–L308; the
#: budget linter owns B*; the runtime sanitizer and the happens-before
#: checker report under X* ids; the overlay-delta linter owns D6xx.
#: Append-only.
RULE_REGISTRY: dict[str, RuleInfo] = {
    info.rule: info
    for group in (
        _rules("program structure", "repro.analysis.verify", {
            "P100": ("plan shape: per-level tables must match the query size",
                     "rebuild the plan; never resize candidate_of_level/sets_at_level by hand"),
            "P101": ("every set must be scheduled exactly once, at its recipe's level",
                     "keep sets_at_level consistent with each recipe's level field"),
            "P102": ("use-before-def: a REF must point at an already-computed set",
                     "lift the dependency to an earlier level or reorder the schedule"),
            "P103": ("use-before-def: operands must be matched before a set reads them",
                     "an op on m[p] may only run at level >= p+1"),
            "P104": ("the set-dependency graph must be acyclic",
                     "break the REF cycle; recipes may only reference smaller levels"),
            "P105": ("un-lifted invariant op: a code-motioned set sits below its earliest "
                     "legal level",
                     "rerun code motion so loop-invariant ops hoist to their earliest level"),
            "P106": ("code-motioned programs must be in canonical single-op form",
                     "split multi-op chains into one-op recipes before declaring code_motion"),
            "P107": ("candidate-set tags and the per-level candidate table must agree",
                     "point candidate_of_level[l] at the recipe tagged is_candidate_for == l"),
            "P108": ("dead set: computed but never consumed",
                     "drop the set from the program or wire its consumer back in"),
        }),
        _rules("symmetry restrictions", "repro.analysis.verify", {
            "S201": ("restrictions may only reference earlier matching positions",
                     "restrict level l against positions < l only"),
            "S202": ("restrictions must match the canonical symmetry breaking of the order",
                     "regenerate restrictions from the automorphism group of the order"),
        }),
        _rules("label filters", "repro.analysis.verify", {
            "L301": ("a candidate set must keep its level's query label",
                     "include the query vertex's label in the candidate set's filter"),
            "L302": ("an intermediate label filter must cover every consumer's labels",
                     "widen the shared set's filter to the union of consumer labels"),
            "L303": ("per-label set duplication (Fig. 10a) instead of merged multi-label sets",
                     "merge structurally equal per-label sets into one multi-label set (Fig. 10b)"),
            "L304": ("label filters are only meaningful on labeled queries",
                     "drop the filter or label the query"),
        }),
        _rules("lifetime/aliasing", "repro.analysis.races.lifetime", {
            "L305": ("slot reused while live: a set is read at a level outside its "
                     "live_sets_at interval",
                     "fix the lifetime metadata (level/is_candidate_for) so every reader "
                     "falls inside the set's live interval"),
            "L306": ("lifetime inversion: last_use_level disagrees with dependency_edges",
                     "a REF dependency must be defined no later than — and stay live "
                     "through — its consumer's level"),
            "L307": ("the lowered walk's operand memoization aliases a written slot "
                     "(stale broadcast)",
                     "schedule a same-level REF dependency before its consumer so the "
                     "memoized operand reads the freshly written slot"),
            "L308": ("count-only-leaf eligibility contradicts sanitizer/consumer requirements",
                     "a leaf candidate set must have no consumers past the leaf; run with "
                     "sanitize=False or accept materialized leaf frames"),
        }),
        _rules("resource budget", "repro.analysis.budget", {
            "B401": ("per-block shared memory (Csize/iter/uiter + Fig. 9b arrays) overflows",
                     "lower unroll or warps per block, or raise shared_mem_per_block"),
            "B402": ("per-block shared memory is under pressure (> 50% of capacity)",
                     "consider a smaller unroll before scaling the query"),
            "B403": ("fixed global footprint (graph + candidate stack C) overflows the device",
                     "lower unroll/max_degree or run on a device with more global memory"),
            "B404": ("neighbor lists longer than max_degree spill to host memory",
                     "raise max_degree to the graph's maximum degree"),
            "B405": ("peak live-set report (informational)", "no action needed"),
            "B406": ("hub operands reach the adjacency-bitmap threshold but no bitmap "
                     "index is configured",
                     "enable the adjacency bitmap index for hub-heavy graphs"),
            "B407": ("process-executor worker count exceeds the divisible shard/root-chunk "
                     "supply",
                     "lower num_workers or increase shard count"),
            "B408": ("the codegen tier's emitted kernel source exceeds the source-size "
                     "budget",
                     "merge per-label set copies or lower unroll, or run the plan on the "
                     "interpreted fast path"),
            "B409": ("adjacency bitmap configured on a huge or memory-mapped graph "
                     "(each hub row densifies to n bytes)",
                     "set bitmap_threshold=None for out-of-core graphs — densified hub "
                     "rows defeat lazy paging and cost O(num_hubs × n) bytes"),
        }),
        _rules("steal protocol (runtime)", "repro.analysis.sanitizer", {
            "X501": ("steal segment duplicated between donor and thief",
                     "divide_and_copy must leave donor and thief segments disjoint"),
            "X502": ("steal dropped or invented candidates",
                     "donor + thief candidates must partition the pre-steal stack"),
            "X503": ("steal touched a frame deeper than stop_level",
                     "only frames at levels <= stop_level are divisible"),
            "X504": ("frame invariant violated (iter/uiter/level bounds)",
                     "iter/uiter must stay inside the frame's candidate bounds"),
            "X505": ("root-vertex conservation violated",
                     "every issued root must be consumed by exactly one stack"),
            "X506": ("match double-counted (or lost) across failure recoveries",
                     "commit each logical root range exactly once; dead launches report 0"),
        }),
        _rules("overlay deltas (batch-dynamic)", "repro.analysis.overlay", {
            "D601": ("delta arcs must be lexicographically sorted and duplicate-free",
                     "build deltas through EditBatch/OverlayGraph.from_edits instead of "
                     "hand-assembling arc arrays"),
            "D602": ("insert and delete deltas overlap (same arc on both sides)",
                     "normalize delete-then-insert batches with "
                     "EditBatch.normalized_against before overlaying"),
            "D603": ("phantom delta: insert already in the base, or delete absent "
                     "from it",
                     "normalize the batch against the base so every delta arc is "
                     "effective"),
            "D604": ("undirected delta stores only one direction of an arc",
                     "expand canonical u<v edges to symmetric arc pairs "
                     "(OverlayGraph.from_edits does this)"),
            "D605": ("malformed delta arcs (shape, endpoint range, or self-loop)",
                     "delta arrays must be (m, 2) int64 with endpoints in [0, n) "
                     "and no self-loops"),
        }),
        _rules("happens-before (concurrency)", "repro.analysis.races.hb", {
            "X507": ("count committed before its frame's steal is ordered "
                     "(take not happens-after deposit)",
                     "synchronize the thief's clock past the deposit before consuming "
                     "stolen frames (WarpTask._try_take_global sync_to)"),
            "X508": ("checkpoint captured a frame concurrently donated "
                     "(capture inside a divide→deposit window)",
                     "only checkpoint at consistent cuts — never between dividing a "
                     "stack and depositing the divided work"),
            "X509": ("shard re-queue races a late original completion (double count)",
                     "re-queue a range only after its failure is ordered before the "
                     "re-dispatch, and commit each range once"),
            "X510": ("worker result absorbed after pool teardown (lost count)",
                     "collect every worker result before discarding its pool, or "
                     "re-queue the shard instead of absorbing a post-teardown result"),
            "X511": ("retried request double-counted, replayed without provenance, "
                     "or shed after committing (request-scoped exactly-once)",
                     "commit each idempotency key at most once while remembered; "
                     "serve retries from the window (request_replay) and never "
                     "shed a key that already committed"),
            "X512": ("cross-partition double count or orphaned roots: shard root-"
                     "ownership claims overlap, or leave declared partition ranges "
                     "unclaimed",
                     "derive every shard's owned range from one verified "
                     "VertexPartition cover so each root — hence each match — has "
                     "exactly one counting shard"),
        }),
    )
    for info in group
}

#: rule id -> one-line description (derived view of :data:`RULE_REGISTRY`,
#: kept for callers that only need the summaries).
RULE_CATALOG: dict[str, str] = {rid: info.summary for rid, info in RULE_REGISTRY.items()}


@dataclass(frozen=True)
class Diagnostic:
    """One finding.

    Attributes
    ----------
    rule:
        Stable id from :data:`RULE_CATALOG`.
    severity:
        ``ERROR`` findings make a plan unrunnable (or a run untrusted);
        ``WARNING`` findings are legal but wasteful or suspicious;
        ``NOTE`` is informational.
    location:
        Where inside the plan/run, e.g. ``"set S3"``, ``"level 2"``,
        ``"config.unroll"`` or ``"warp 5@block1"``.
    message:
        What is wrong (or noteworthy).
    hint:
        Concrete remediation, when the analysis can compute one.
    """

    rule: str
    severity: Severity
    location: str
    message: str
    hint: str | None = None

    def render(self) -> str:
        s = f"{self.severity} {self.rule} [{self.location}] {self.message}"
        if self.hint:
            s += f"  (fix: {self.hint})"
        return s

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (used by the CLI's ``--json`` output)."""
        return {
            "rule": self.rule,
            "severity": str(self.severity),
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }

    def __str__(self) -> str:
        return self.render()


@dataclass
class DiagnosticReport:
    """An ordered collection of diagnostics for one analyzed subject."""

    subject: str = ""
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(
        self,
        rule: str,
        severity: Severity,
        location: str,
        message: str,
        hint: str | None = None,
    ) -> None:
        if rule not in RULE_CATALOG:
            raise KeyError(f"unknown diagnostic rule {rule!r}")
        self.diagnostics.append(Diagnostic(rule, severity, location, message, hint))

    def extend(self, other: "DiagnosticReport | Iterable[Diagnostic]") -> None:
        items = other.diagnostics if isinstance(other, DiagnosticReport) else list(other)
        self.diagnostics.extend(items)

    # -- queries -----------------------------------------------------------

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def by_rule(self, rule: str) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def has_errors(self) -> bool:
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    @property
    def max_severity(self) -> Severity | None:
        if not self.diagnostics:
            return None
        return max(d.severity for d in self.diagnostics)

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form: subject, findings, and a severity summary."""
        return {
            "subject": self.subject,
            "findings": [d.to_dict() for d in self.diagnostics],
            "summary": {
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "notes": sum(1 for d in self.diagnostics if d.severity is Severity.NOTE),
            },
        }

    def render(self, min_severity: Severity = Severity.NOTE) -> str:
        shown = [d for d in self.diagnostics if d.severity >= min_severity]
        head = self.subject or "analysis"
        if not shown:
            return f"{head}: clean"
        lines = [f"{head}: {len(shown)} finding(s)"]
        lines += [f"  {d.render()}" for d in shown]
        return "\n".join(lines)

    def raise_if_errors(self) -> None:
        if self.has_errors:
            raise PlanVerificationError(self)


class PlanVerificationError(ValueError):
    """Raised when a report with ERROR diagnostics is escalated."""

    def __init__(self, report: DiagnosticReport) -> None:
        self.report = report
        msg = "\n".join(d.render() for d in report.errors)
        super().__init__(f"plan verification failed for {report.subject or 'plan'}:\n{msg}")
