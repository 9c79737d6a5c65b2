"""Engine configuration (the paper's tunables, Sec. VIII-A).

Defaults follow the paper's settings: ``StopLevel = 2``,
``UNROLL = 8``, ``MAX_DEGREE = 4096``; ``DetectLevel`` defaults to
``min(2, StopLevel)`` (see :attr:`EngineConfig.detect_level`).  Feature
flags correspond to the ablation variants of Fig. 12: ``naive``
(no stealing, no unrolling), ``localsteal``, ``local+globalsteal`` and
``unroll+local+globalsteal``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.virtgpu.device import DeviceConfig

__all__ = ["EngineConfig"]


@dataclass(frozen=True)
class EngineConfig:
    """All knobs of the STMatch engine.

    Attributes
    ----------
    unroll:
        Loop-unrolling size (Sec. VI); 1 disables unrolling.
    stop_level:
        Deepest stack level whose candidates work stealing may divide
        (``StopLevel`` in Algorithm 2).
    detect_level:
        The ``steal_across_block`` check fires when a warp enters a
        level ≤ this (``DetectLevel``, Sec. V-B).  The paper's setting
        (1, with checks on re-entering the root loop) never fires when a
        warp stays inside one huge root subtree, so this adaptation
        checks on *descents into* shallow levels instead; the default
        (``None``) resolves to ``min(2, stop_level)`` — push checks
        happen exactly where divisible work lives, and values above
        ``stop_level`` are rejected at construction.
    max_degree:
        Candidate-slot capacity; longer sets spill to host memory at a
        cost penalty (Sec. VIII-A).
    chunk_size:
        Root-level vertices a warp grabs per global-counter fetch (Fig. 4).
    local_steal / global_steal:
        The two levels of work stealing (Sec. V).
    code_motion:
        Compile plans with loop-invariant code motion (Sec. VII).
    device:
        Virtual device shape.
    max_results:
        Optional exploration budget: the engine stops after counting
        this many matches (benchmarks use it to bound the huge sparse
        queries; ``None`` = exhaustive).
    """

    unroll: int = 8
    stop_level: int = 2
    detect_level: int | None = None  # resolved to min(2, stop_level)
    max_degree: int = 4096
    chunk_size: int = 4
    local_steal: bool = True
    global_steal: bool = True
    code_motion: bool = True
    device: DeviceConfig = DeviceConfig()
    max_results: int | None = None
    sanitize: bool = False
    #   opt-in runtime sanitizer (repro.analysis.sanitizer): statically
    #   verifies the plan at launch and checks every steal for segment
    #   disjointness, conservation and frame invariants; raises
    #   SanitizerError instead of silently corrupting counts
    checkpoint_interval: int | None = None
    #   stack checkpointing (repro.core.checkpoint): snapshot the whole
    #   launch (C/Csize/iter/uiter + root counter) every N root chunks.
    #   Snapshots cost zero simulated cycles (async host-side DMA off
    #   the critical path), so fault-free runs are cycle-identical with
    #   or without checkpointing; None disables it.
    observe: bool = False
    #   observability (repro.obs): attach a TraceCollector to the launch
    #   and a schema-versioned report to the result.  Hooks are read-only
    #   and never charge cycles, so matches / cycles / steal schedules
    #   are byte-identical with observe on or off (property-tested by
    #   tests/test_obs_zero_overhead.py); off means zero hook calls.
    executor: str = "serial"
    #   where repro.parallel.run_shards runs the shards of the drivers
    #   (run_multi_gpu, run_distributed, STMatchEngine.run_partitioned,
    #   MatchService): "serial" in-process, "process" on a persistent
    #   ProcessPoolExecutor over a shared-memory graph.  Both run the
    #   same shard function, so results are identical
    #   (tests/test_parallel_identity.py).
    num_workers: int | None = None
    #   worker processes for executor="process" (None = all usable
    #   cores).  Pools spawn lazily and only when num_workers > 1 AND
    #   more than one shard exists — tiny runs never pay fork/IPC
    #   overhead (serial fast fallback).
    worker_timeout_s: float | None = None
    #   wall-clock cap on one parallel shard batch: shards unfinished
    #   when it expires surface individually as TIMEOUT with a
    #   non-empty detail (completed shards keep their results) and are
    #   re-queued onto surviving shards' devices — never a hang.
    #   None (default) waits indefinitely, matching serial semantics.
    codegen: bool = False
    #   compiled per-query kernel tier (repro.codegen): print the walk
    #   of the lowered level program (core/lowering.py) as Python
    #   source per (query, schedule) — step loop unrolled,
    #   constants frozen — exec it once and cache it in a
    #   graph-independent process-wide LRU.  It calls the same
    #   core/levelops.py functions as the interpreted walk, so matches,
    #   simulated cycles, steal schedules and tracer streams are
    #   identical by construction; only host wall-clock changes.
    partition_mode: str = "replicate"
    #   how the multi-shard drivers split the data graph:
    #   "replicate" is the paper's Fig. 11 model — every device holds
    #   the whole graph and shards split root chunks round-robin;
    #   "range" is the scale mode — each shard owns a contiguous vertex
    #   range plus a 1-hop-replicated boundary (repro.scale.partition)
    #   and enumerates only roots it owns, so each match is counted by
    #   exactly one shard (analyzer rule X512 checks the cover/claims).

    def __post_init__(self) -> None:
        if self.unroll < 1:
            raise ValueError("unroll must be >= 1 (1 disables unrolling)")
        if self.stop_level < 0:
            raise ValueError("stop_level must be >= 0")
        if self.detect_level is None:
            # default: push checks exactly where divisible work lives
            object.__setattr__(self, "detect_level", min(2, self.stop_level))
        if self.detect_level < 0:
            raise ValueError("detect_level must be >= 0")
        if self.detect_level > self.stop_level:
            # a push check below StopLevel would deposit stacks whose
            # shallow frames can never be divided: the thief would spin on
            # undividable work, i.e. a degenerate schedule
            raise ValueError(
                f"detect_level ({self.detect_level}) must not exceed "
                f"stop_level ({self.stop_level}): steal_across_block checks "
                "must fire where divisible work lives"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.max_degree < 1:
            raise ValueError("max_degree must be >= 1")
        if self.max_results is not None and self.max_results < 1:
            raise ValueError("max_results must be >= 1 (or None for exhaustive)")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(
                "checkpoint_interval must be >= 1 root chunks (or None to disable)"
            )
        if self.executor not in ("serial", "process"):
            raise ValueError(
                f"executor must be 'serial' or 'process', not {self.executor!r}"
            )
        if self.num_workers is not None and self.num_workers < 1:
            raise ValueError("num_workers must be >= 1 (or None for all cores)")
        if self.worker_timeout_s is not None and self.worker_timeout_s <= 0:
            raise ValueError(
                "worker_timeout_s must be > 0 seconds (or None to wait forever)"
            )
        if self.partition_mode not in ("replicate", "range"):
            raise ValueError(
                f"partition_mode must be 'replicate' or 'range', not {self.partition_mode!r}"
            )

    # -- ablation variants (Fig. 12) --------------------------------------

    @classmethod
    def naive(cls, **kw) -> "EngineConfig":
        """No stealing, no unrolling (still code-motioned, as in Fig. 12)."""
        return cls(unroll=1, local_steal=False, global_steal=False, **kw)

    @classmethod
    def localsteal(cls, **kw) -> "EngineConfig":
        return cls(unroll=1, local_steal=True, global_steal=False, **kw)

    @classmethod
    def local_global_steal(cls, **kw) -> "EngineConfig":
        return cls(unroll=1, local_steal=True, global_steal=True, **kw)

    @classmethod
    def full(cls, **kw) -> "EngineConfig":
        """unroll + local + global stealing — the headline configuration."""
        return cls(**kw)

    def with_(self, **kw) -> "EngineConfig":
        """Functional update (convenience for sweeps)."""
        return replace(self, **kw)

    @property
    def budget(self) -> int | None:
        """Alias for :attr:`max_results` — the exploration budget.

        The serve layer speaks in "budgets" (per-tenant cycle budgets,
        budget-truncated degraded answers); the engine knob it clamps
        is ``max_results``.  One name per layer, one field underneath.
        """
        return self.max_results

    def with_budget(self, budget: int | None) -> "EngineConfig":
        """Functional update of the exploration budget, keeping the
        tighter of the current and requested caps (a tenant budget must
        never *loosen* a client-requested one)."""
        if budget is None:
            return self
        if self.max_results is not None:
            budget = min(budget, self.max_results)
        return replace(self, max_results=budget)
