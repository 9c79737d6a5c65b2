"""Shared-memory / global-memory budget linting for matching plans.

STMatch's footprint is *fixed* per launch (Sec. VIII-A): shared memory
holds the per-warp ``Csize``/``iter``/``uiter`` arrays plus the compact
``row_ptr``/``set_ops`` encoding, and global memory holds the candidate
stack ``C`` — ``NUM_SETS × UNROLL × slot × NUM_WARPS`` elements — next
to the CSR graph.  Both budgets fail in characteristic ways when a plan
carries too many sets: the per-label split layout of Fig. 10a is the
canonical offender ("too many Csize slots for GPU shared memory"),
which is exactly why label merging (Fig. 10b) exists.

This linter prices a plan against a :class:`DeviceConfig` *before*
launch and renders overflows as structured diagnostics with concrete
remediation (merge label copies, lower ``unroll``, lower
``max_degree``) instead of the silent partial results GSI/cuTS ship
when their tables outgrow the device.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codemotion.depgraph import SetProgram
from repro.core.config import EngineConfig
from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.virtgpu.device import DeviceConfig

from .diagnostics import DiagnosticReport, Severity
from .verify import structural_groups

__all__ = ["BudgetEstimate", "estimate_budget", "lint_budget", "max_fitting_unroll"]

_ELEM = 4  # int32 vertex ids / Csize counters


@dataclass(frozen=True)
class BudgetEstimate:
    """Priced footprint of one plan on one device configuration.

    Shared memory (per block): ``control_bytes_per_warp`` covers the
    ``Csize`` counters (one per set per unrolled slot) and the
    ``iter``/``uiter`` pairs; ``encoding_bytes`` the Fig. 9b arrays.
    Global memory: the candidate stack ``C`` plus (when a graph is
    supplied) the CSR arrays.  ``live_per_level`` is the slot-pressure
    profile: how many set instances must be resident at each level.
    """

    num_sets: int
    num_levels: int
    unroll: int
    slot_elems: int
    # shared
    control_bytes_per_warp: int
    encoding_bytes: int
    shared_bytes_per_block: int
    shared_capacity: int
    # global
    candidate_bytes_total: int
    graph_bytes: int
    global_capacity: int
    # liveness
    live_per_level: tuple[int, ...]
    peak_live_level: int
    peak_live_sets: int

    @property
    def shared_utilization(self) -> float:
        return self.shared_bytes_per_block / max(self.shared_capacity, 1)

    @property
    def global_bytes_total(self) -> int:
        return self.candidate_bytes_total + self.graph_bytes

    @property
    def global_utilization(self) -> float:
        return self.global_bytes_total / max(self.global_capacity, 1)

    @property
    def peak_live_bytes_per_warp(self) -> int:
        """Candidate payload alive at the worst level for one warp."""
        return self.peak_live_sets * self.unroll * self.slot_elems * _ELEM


def _program_of(plan: MatchingPlan | SetProgram) -> SetProgram:
    return plan.program if isinstance(plan, MatchingPlan) else plan


def estimate_budget(
    plan: MatchingPlan | SetProgram,
    config: EngineConfig,
    graph: CSRGraph | None = None,
) -> BudgetEstimate:
    """Price ``plan`` on ``config.device`` (no allocation performed)."""
    program = _program_of(plan)
    device: DeviceConfig = config.device
    n = program.num_sets
    k = program.num_levels
    slot = config.max_degree
    graph_bytes = 0
    if graph is not None:
        slot = min(slot, max(graph.max_degree(), 1))
        # resident footprint, not raw array sizes: a PartitionedGraph
        # shard charges its owned-range + boundary replica only
        graph_bytes = graph.device_graph_bytes()
    control = n * config.unroll * _ELEM + k * 2 * _ELEM
    encoding = 0
    if program.is_single_op():
        # row_ptr (k+1 int32) + set_ops quads (n × 4 int32) — "tens of bytes"
        encoding = (k + 1) * _ELEM + n * 4 * _ELEM
    live = tuple(len(program.live_sets_at(l)) for l in range(k))
    peak_level = max(range(k), key=lambda l: live[l], default=0) if k else 0
    return BudgetEstimate(
        num_sets=n,
        num_levels=k,
        unroll=config.unroll,
        slot_elems=slot,
        control_bytes_per_warp=control,
        encoding_bytes=encoding,
        shared_bytes_per_block=control * device.warps_per_block + encoding,
        shared_capacity=device.shared_mem_per_block,
        candidate_bytes_total=n * config.unroll * slot * _ELEM * device.num_warps,
        graph_bytes=graph_bytes,
        global_capacity=device.global_mem_bytes,
        live_per_level=live,
        peak_live_level=peak_level,
        peak_live_sets=live[peak_level] if live else 0,
    )


def max_fitting_unroll(
    plan: MatchingPlan | SetProgram,
    config: EngineConfig,
    graph: CSRGraph | None = None,
) -> int:
    """Largest ``unroll`` ≥ 1 whose footprint fits both budgets (0 when
    even ``unroll=1`` overflows)."""
    lo = 0
    for u in range(config.unroll, 0, -1):
        est = estimate_budget(plan, config.with_(unroll=u), graph)
        if (est.shared_bytes_per_block <= est.shared_capacity
                and est.global_bytes_total <= est.global_capacity):
            lo = u
            break
    return lo


def _merge_hint(program: SetProgram, est: BudgetEstimate, fits_at: int) -> str:
    dup = sum(len(g) - 1 for g in structural_groups(program).values() if len(g) > 1)
    hints = []
    if dup:
        hints.append(
            f"merge the {dup} per-label set cop{'ies' if dup > 1 else 'y'} "
            "into multi-label sets (Fig. 10b)"
        )
    if fits_at >= 1 and fits_at < est.unroll:
        hints.append(f"lower unroll from {est.unroll} to {fits_at}")
    elif not dup:
        hints.append("lower unroll or max_degree")
    return "; or ".join(hints)


def lint_budget(
    plan: MatchingPlan | SetProgram,
    config: EngineConfig,
    graph: CSRGraph | None = None,
    subject: str = "budget",
) -> DiagnosticReport:
    """Run the B-rules: flag plans that overflow the configured device."""
    program = _program_of(plan)
    est = estimate_budget(plan, config, graph)
    rep = DiagnosticReport(subject=subject)
    fits_at = max_fitting_unroll(plan, config, graph)
    if est.shared_bytes_per_block > est.shared_capacity:
        rep.add(
            "B401", Severity.ERROR, "device.shared_mem_per_block",
            f"per-block shared memory needs {est.shared_bytes_per_block} B "
            f"({est.num_sets} sets × unroll {est.unroll} Csize slots + "
            f"iter/uiter + Fig. 9b arrays) but the device has "
            f"{est.shared_capacity} B",
            hint=_merge_hint(program, est, fits_at),
        )
    elif est.shared_utilization > 0.5:
        rep.add(
            "B402", Severity.WARNING, "device.shared_mem_per_block",
            f"shared memory at {est.shared_utilization:.0%} of capacity "
            f"({est.shared_bytes_per_block}/{est.shared_capacity} B); no "
            "headroom for a larger unroll or more resident blocks",
            hint=_merge_hint(program, est, fits_at),
        )
    if est.global_bytes_total > est.global_capacity:
        rep.add(
            "B403", Severity.ERROR, "device.global_mem_bytes",
            f"fixed global footprint {est.global_bytes_total} B "
            f"(candidate stack {est.candidate_bytes_total} B"
            + (f" + graph {est.graph_bytes} B" if est.graph_bytes else "")
            + f") exceeds {est.global_capacity} B — the launch would OOM",
            hint=_merge_hint(program, est, fits_at),
        )
    if graph is not None and graph.max_degree() > config.max_degree:
        rep.add(
            "B404", Severity.WARNING, "config.max_degree",
            f"graph max degree {graph.max_degree()} exceeds max_degree "
            f"{config.max_degree}: long neighbor lists spill to host memory "
            "at a latency penalty (Sec. VIII-A)",
            hint=f"raise max_degree toward {graph.max_degree()} if memory allows",
        )
    if (
        graph is not None
        and config.executor == "process"
        and config.num_workers is not None
    ):
        num_chunks = -(-graph.num_vertices // config.chunk_size)  # ceil div
        if config.num_workers > max(1, num_chunks):
            rep.add(
                "B407", Severity.WARNING, "config.num_workers",
                f"{config.num_workers} worker processes but only "
                f"{num_chunks} root chunk(s) to shard "
                f"({graph.num_vertices} roots / chunk_size "
                f"{config.chunk_size}): a round-robin partition hands the "
                "extra workers no roots at all — they fork, attach the "
                "shared graph and exit without contributing",
                hint=f"lower num_workers toward {max(1, num_chunks)} or "
                "shrink chunk_size so every worker owns at least one chunk",
            )
    if config.codegen and isinstance(plan, MatchingPlan):
        try:
            from repro.codegen.emit import (
                SOURCE_BUDGET_BYTES,
                estimate_source_size,
            )

            src_bytes = estimate_source_size(plan, config)
        except Exception:  # pragma: no cover - codegen tier unavailable
            src_bytes = None
        if src_bytes is not None and src_bytes > SOURCE_BUDGET_BYTES:
            rep.add(
                "B408", Severity.WARNING, "config.codegen",
                f"the compiled-tier kernel for this plan would be "
                f"{src_bytes} B of generated source, past the "
                f"{SOURCE_BUDGET_BYTES} B budget: compilation dominates "
                "the first run and large modules crowd the code cache",
                hint="merge per-label set copies (Fig. 10b) or lower "
                "unroll; or leave codegen off for this plan — the "
                "interpreted fast path has no source budget",
            )
    rep.add(
        "B405", Severity.NOTE, f"level {est.peak_live_level}",
        f"peak slot pressure: {est.peak_live_sets} live set(s) × unroll "
        f"{est.unroll} × {est.slot_elems} slot elems = "
        f"{est.peak_live_bytes_per_warp} B per warp "
        f"(live profile {list(est.live_per_level)})",
    )
    return rep
