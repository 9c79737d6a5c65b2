"""The STMatch warp kernel (Figs. 3 and 7) on the virtual GPU.

Every warp runs the same stack-machine loop:

* stack empty → grab the next chunk of root vertices from the global
  atomic counter (Fig. 4); when the counter is exhausted, spin: retry a
  local steal from sibling warps each poll (Sec. V-A), mark the block's
  ``is_idle`` bitmap, and watch the block's ``global_stks`` slot for a
  pushed stack (Sec. V-B).  Each poll costs idle cycles, so spinning
  warps advance their clocks exactly like hardware spin-waits.
* top frame has unconsumed candidates → take the next ``UNROLL`` of
  them, batch-compute the next level's sets with one combined set
  operation per recipe (Fig. 8), and either push the new frame or — at
  the last level — count/emit its candidates as matches.
* top frame exhausted → advance to the next unrolled slot, or pop.

Termination is exact: a spinning warp finishes when the root counter is
exhausted and no warp holds a nonempty stack (tracked by
``KernelState.active_count``), which is when the real kernel's global
done flag would flip.  The whole query is one kernel launch — the
paper's core contrast with subgraph-centric systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import TYPE_CHECKING, Callable

from repro.faults.errors import InjectedFault, KernelTimeoutError
from repro.pattern.plan import MatchingPlan
from repro.virtgpu.device import VirtualDevice
from repro.virtgpu.scheduler import EventScheduler, StepResult

if TYPE_CHECKING:  # pragma: no cover - typing only (analysis imports core)
    from repro.analysis.sanitizer import StealSanitizer

from .candidates import CandidateComputer
from .checkpoint import Checkpointer, KernelSnapshot, _clone_pending
from .config import EngineConfig
from .stack import Frame, WarpStack, divide_and_copy, reabsorb
from .stealing import GlobalStealBoard, select_local_target

__all__ = [
    "ChunkIterator",
    "KernelInterrupted",
    "KernelState",
    "WarpTask",
    "run_kernel",
]


class KernelInterrupted(RuntimeError):
    """A kernel launch was killed mid-flight by an injected fault.

    Carries the last :class:`~repro.core.checkpoint.KernelSnapshot`
    (``None`` when the fault struck before the first checkpoint), so
    the recovery layer can resume instead of restarting.  The partial
    match count of the dead launch is deliberately *not* exposed — it
    must never be aggregated (recovery re-derives counts from the
    checkpoint, which is the dedupe discipline rule X506 asserts).
    """

    def __init__(self, cause: InjectedFault, checkpoint: KernelSnapshot | None) -> None:
        self.cause = cause
        self.checkpoint = checkpoint
        msg = str(cause)
        if checkpoint is not None:
            msg += (f"; last checkpoint at {checkpoint.chunks_served} root "
                    f"chunk(s), {checkpoint.matches} match(es) committed")
        else:
            msg += "; no checkpoint available (full restart required)"
        super().__init__(msg)

    def __reduce__(self):
        # default exception pickling replays cls(message) and drops the
        # cause/checkpoint pair; rebuild from the fields so interrupted
        # launches round-trip from process-pool workers (repro.parallel)
        return (type(self), (self.cause, self.checkpoint))

    @property
    def timed_out(self) -> bool:
        return isinstance(self.cause, KernelTimeoutError)

MatchCallback = Callable[[tuple[int, ...]], None]


class ChunkIterator:
    """The global atomic counter distributing root vertices (Fig. 4).

    Multi-device runs shard the counter round-robin: device ``owner`` of
    ``num_owners`` serves every ``num_owners``-th chunk, which spreads
    hub vertices across devices (a contiguous split would hand all the
    low-id hubs of a preferential-attachment graph to device 0).
    """

    def __init__(
        self,
        total: int,
        chunk_size: int,
        start: int = 0,
        owner: int = 0,
        num_owners: int = 1,
    ) -> None:
        if not 0 <= owner < num_owners:
            raise ValueError("owner must be in [0, num_owners)")
        self.total = total
        self.chunk_size = chunk_size
        self.stride = chunk_size * num_owners
        self.pos = start + owner * chunk_size

    def next_chunk(self) -> tuple[int, int] | None:
        if self.pos >= self.total:
            return None
        start = self.pos
        end = min(start + self.chunk_size, self.total)
        self.pos += self.stride
        return (start, end)

    @property
    def exhausted(self) -> bool:
        return self.pos >= self.total


@dataclass
class KernelState:
    """State shared by all warps of one kernel launch."""

    plan: MatchingPlan
    config: EngineConfig
    computer: CandidateComputer
    device: VirtualDevice
    chunks: ChunkIterator
    board: GlobalStealBoard
    on_match: MatchCallback | None = None
    matches: int = 0
    num_local_steals: int = 0
    num_global_steals: int = 0
    num_lost_steals: int = 0   # global pushes dropped by fault injection
    chunks_served: int = 0     # root chunks handed out (checkpoint clock)
    stop_flag: bool = False
    active_count: int = 0  # warps currently holding a nonempty stack
    # the same, per block: a spin poll in a block at 0 has no local victim
    block_active: list[int] = field(default_factory=list)
    tasks: list["WarpTask"] = field(default_factory=list)
    sanitizer: "StealSanitizer | None" = None
    checkpointer: Checkpointer | None = None
    tracer: object | None = None  # repro.obs.TraceCollector | None (read-only)
    # per-launch constants of the loop body, set once by run_kernel
    last_level: int = -1
    count_leaves: bool = False  # last level is counted, never iterated

    def block_tasks(self, block_id: int) -> list["WarpTask"]:
        wpb = self.config.device.warps_per_block
        return self.tasks[block_id * wpb : (block_id + 1) * wpb]

    # -- checkpoint / resume ----------------------------------------------

    def snapshot(self) -> KernelSnapshot:
        """Serialize the whole launch state (C/Csize/iter/uiter/l per
        warp, root-counter position, steal board, accumulators) into a
        consistent, restorable cut."""
        return KernelSnapshot.capture(self)

    def restore(self, snap: KernelSnapshot) -> None:
        """Load ``snap`` into this (freshly built) kernel state.

        The target device must have the same warp count as the one the
        snapshot was taken on — the paper's multi-GPU setting runs
        identical replicas (Sec. VIII-B), so a lost device's range
        resumes bit-exactly on any survivor.  Frames are re-cloned so
        one snapshot can seed several retry attempts.
        """
        if snap.num_warps != len(self.tasks):
            raise ValueError(
                f"snapshot holds {snap.num_warps} warp stacks but the device "
                f"runs {len(self.tasks)} warps — resume needs an identically "
                "shaped replica")
        self.chunks.total = snap.chunk_total
        self.chunks.chunk_size = snap.chunk_size
        self.chunks.stride = snap.chunk_stride
        self.chunks.pos = snap.chunk_pos
        self.chunks_served = snap.chunks_served
        self.matches = snap.matches
        self.num_local_steals = snap.num_local_steals
        self.num_global_steals = snap.num_global_steals
        self.num_lost_steals = snap.num_lost_steals
        self.stop_flag = snap.stop_flag
        for i, task in enumerate(self.tasks):
            task.stack.frames = [f.clone() for f in snap.task_frames[i]]
            task.status = WarpTask.DONE if snap.task_done[i] else WarpTask.RUNNING
            task.warp.clock = snap.warp_clocks[i]
            task.warp.counters = replace(snap.warp_counters[i])
        self.board.idle = [set(s) for s in snap.board_idle]
        self.board.slots = [_clone_pending(pw) for pw in snap.board_slots]
        self.active_count = sum(1 for t in self.tasks if t.stack.depth > 0)
        self.block_active = [0] * self.device.num_blocks
        for t in self.tasks:
            if t.stack.depth > 0:
                self.block_active[t.warp.block_id] += 1
        if self.tracer is not None:
            self.tracer.on_restore(
                len(self.tasks), snap.chunks_served, snap.matches,
                clock=max(snap.warp_clocks, default=0.0),
            )

    def add_matches(self, n: int) -> None:
        self.matches += n
        budget = self.config.max_results
        if budget is not None and self.matches >= budget:
            self.stop_flag = True

    @property
    def drained(self) -> bool:
        """True when no warp can ever obtain work again: the root counter
        is exhausted, no stack is live, and no pushed stack awaits pickup."""
        return (
            self.chunks.exhausted
            and self.active_count == 0
            and not self.board.has_pending
        )


class WarpTask:
    """One warp's execution of the kernel loop."""

    RUNNING = "running"
    DONE = "done"

    def __init__(self, warp, state: KernelState) -> None:
        self.warp = warp
        self.state = state
        self.stack = WarpStack()
        self.status = WarpTask.RUNNING

    @property
    def runnable(self) -> bool:
        return self.status == WarpTask.RUNNING

    # -- bookkeeping -----------------------------------------------------

    def _gain_work(self, frames: list[Frame] | Frame) -> None:
        assert self.stack.depth == 0
        if isinstance(frames, Frame):
            self.stack.push(frames)
        else:
            self.stack.frames = frames
        self.state.active_count += 1
        self.state.block_active[self.warp.block_id] += 1
        self.state.board.clear_idle(self.warp.block_id, self.warp.warp_id)

    def _drop_stack(self) -> None:
        if self.stack.depth:
            self.stack.clear()
        self.state.active_count -= 1
        self.state.block_active[self.warp.block_id] -= 1

    # -- scheduler hook ----------------------------------------------------

    def step(self) -> StepResult:
        """One iteration of the kernel loop.  Stop and pop / next-slot
        steps — most steps — are handled inline; an empty stack calls
        :meth:`_acquire_work` and a batch :meth:`_batch_step`."""
        st = self.state
        frames = self.stack.frames
        if st.stop_flag:
            if frames:
                self._drop_stack()
            self.status = WarpTask.DONE
            return StepResult.DONE
        if not frames:
            return self._acquire_work()
        f = frames[-1]
        if f.cand[f.uiter].size > f.iter:
            return self._batch_step(f)
        # top slot exhausted: advance to the next unrolled slot, or pop
        # (the warp_issue charge is Warp.charge's two additions)
        warp = self.warp
        cycles = warp.cost.warp_issue
        warp.clock += cycles
        warp.counters.busy_cycles += cycles
        if f.uiter + 1 < len(f.cand):
            f.uiter += 1
            f.iter = 0
        else:
            frames.pop()
            if not frames:
                st.active_count -= 1
                st.block_active[warp.block_id] -= 1
        return StepResult.RUNNING

    # -- work acquisition --------------------------------------------------

    def _acquire_work(self) -> StepResult:
        st = self.state
        cfg = st.config
        warp = self.warp
        chunk = st.chunks.next_chunk()
        if chunk is not None:
            st.chunks_served += 1
            warp.charge(warp.cost.atomic_op)
            arr = st.computer.root_candidates[chunk[0]: chunk[1]]
            if arr.size:
                warp.charge_copy(arr.size, in_global=True)
                if st.sanitizer is not None:
                    st.sanitizer.on_chunk(warp, arr)
                self._gain_work(st.computer.root_frame(arr))
            if st.tracer is not None:
                st.tracer.on_chunk(warp, chunk[0], chunk[1], int(arr.size))
            if st.checkpointer is not None:
                # the chunk is on this warp's stack now, so the cut is
                # consistent: every issued root is either consumed or
                # owned by exactly one serialized stack
                before = st.checkpointer.num_taken
                st.checkpointer.maybe_take(st)
                if st.tracer is not None and st.checkpointer.num_taken > before:
                    st.tracer.on_checkpoint(warp, st.chunks_served, st.matches)
            return StepResult.RUNNING
        # no steal levels enabled: the warp retires with the counter
        if not (cfg.local_steal or cfg.global_steal):
            self.status = WarpTask.DONE
            return StepResult.DONE
        if st.drained:
            self.status = WarpTask.DONE
            return StepResult.DONE
        # spin iteration: local steal attempt, then global slot poll
        warp.charge(warp.cost.idle_poll, busy=False)
        if st.tracer is not None:
            st.tracer.on_idle_poll(warp)
        if cfg.local_steal and self._try_local_steal():
            return StepResult.RUNNING
        if cfg.global_steal:
            st.board.mark_idle(warp.block_id, warp.warp_id)
            if self._try_take_global():
                return StepResult.RUNNING
        return StepResult.RUNNING  # keep spinning

    def _try_local_steal(self) -> bool:
        st = self.state
        cfg = st.config
        if st.tracer is not None:
            st.tracer.on_local_attempt(self.warp)
        if not st.block_active[self.warp.block_id]:
            return False  # no sibling holds a stack to divide
        siblings = st.block_tasks(self.warp.block_id)
        target = select_local_target(self, siblings, cfg.stop_level)
        if target is None:
            return False
        san = st.sanitizer
        snap = san.snapshot(target.stack) if san is not None else None
        work = divide_and_copy(target.stack, cfg.stop_level)
        if work.empty:
            return False
        if san is not None:
            assert snap is not None
            san.on_steal("local", donor_warp=target.warp,
                         donor_stack=target.stack, snapshot=snap, work=work,
                         thief_warp=self.warp)
        self._gain_work(work.frames)
        self.warp.charge(self.warp.cost.steal_cycles(work.copied_elems, local=True))
        self.warp.counters.steals_received += 1
        target.warp.counters.steals_initiated += 1
        st.num_local_steals += 1
        if st.tracer is not None:
            st.tracer.on_steal("local", self.warp, work.copied_elems,
                               donor_block=target.warp.block_id,
                               donor_warp=target.warp.warp_id)
        return True

    def _try_take_global(self) -> bool:
        """Poll this block's ``global_stks`` slot for a pushed stack."""
        st = self.state
        pending = st.board.take(self.warp.block_id)
        if pending is None:
            return False
        self.warp.sync_to(pending.pusher_clock)
        self.warp.charge(
            self.warp.cost.steal_cycles(pending.work.copied_elems, local=False)
        )
        if st.sanitizer is not None:
            st.sanitizer.on_take(self.warp, pending.work)
        self._gain_work(pending.work.frames)
        self.warp.counters.steals_received += 1
        if st.tracer is not None:
            st.tracer.on_steal("global_take", self.warp,
                               pending.work.copied_elems,
                               donor_block=pending.pusher_block,
                               donor_warp=pending.pusher_warp)
        return True

    # -- global push side ----------------------------------------------------

    def _maybe_push_global(self) -> None:
        st = self.state
        cfg = st.config
        warp = self.warp
        if not self.stack.has_stealable(cfg.stop_level):
            return
        warp.charge(warp.cost.shared_access)  # bitmap scan probe
        block = st.board.find_idle_block(exclude_block=warp.block_id)
        if block is None:
            return
        san = st.sanitizer
        snap = san.snapshot(self.stack) if san is not None else None
        work = divide_and_copy(self.stack, cfg.stop_level)
        if work.empty:
            return
        if st.tracer is not None:
            st.tracer.on_divide(warp, work.copied_elems)
        warp.charge(warp.cost.steal_cycles(work.copied_elems, local=False))
        if not st.board.deposit(block, work, warp.clock, warp.warp_id,
                                pusher_block=warp.block_id):
            # the push message was lost (fault injection): the divided
            # tail returns to the donor so no candidate — and no root
            # subtree — is orphaned; only the copy cycles are wasted
            reabsorb(self.stack, work)
            st.num_lost_steals += 1
            if st.tracer is not None:
                st.tracer.on_steal_lost(warp, work.copied_elems)
            return
        if san is not None:
            assert snap is not None
            san.on_steal("global", donor_warp=warp, donor_stack=self.stack,
                         snapshot=snap, work=work)
        warp.counters.steals_initiated += 1
        st.num_global_steals += 1
        if st.tracer is not None:
            st.tracer.on_steal("global_push", warp, work.copied_elems,
                               target_block=block)

    # -- the loop body -----------------------------------------------------

    def _batch_step(self, f: Frame) -> StepResult:
        """Take the next ``UNROLL`` candidates of the top frame ``f``
        and compute (or count) the level below them."""
        st = self.state
        cfg = st.config
        warp = self.warp
        lo = f.iter
        batch = f.active_cand()[lo : lo + cfg.unroll]
        f.iter = lo + int(batch.size)
        if st.tracer is not None:
            st.tracer.on_batch(warp, f.level, int(batch.size), cfg.unroll)
        if st.sanitizer is not None and f.level == 0 and batch.size:
            st.sanitizer.on_root_batch(warp, batch)
        new_level = f.level + 1
        # steal_across_block check on level entry (Sec. V-B): fires for
        # shallow levels only, where the remaining workload justifies the
        # push overhead
        if cfg.global_steal and new_level <= cfg.detect_level:
            self._maybe_push_global()
        if new_level == st.last_level and st.count_leaves:
            # count-only leaf: the last level's candidates are never
            # iterated, only counted, so skip materializing their arrays;
            # the window names the parent slot the batch was cut from (as
            # a push just left it), which the leaf plans once for
            if st.tracer is not None:
                st.tracer.on_frame_begin(warp, new_level)
            counts = st.computer.compute_frame(
                warp, self.stack, new_level, batch,
                count_only=(f.active_cand(), lo, f.iter),
            )
            per_slot = counts.tolist()
            warp.counters.tree_nodes += len(per_slot)
            if st.tracer is not None:
                st.tracer.on_frame(warp, new_level, len(per_slot), per_slot)
            self._count_leaf(sum(per_slot))
            return StepResult.RUNNING
        if st.tracer is not None:
            st.tracer.on_frame_begin(warp, new_level)
        frame = st.computer.compute_frame(warp, self.stack, new_level, batch)
        warp.counters.tree_nodes += int(batch.size)
        if st.tracer is not None:
            st.tracer.on_frame(warp, new_level, frame.nslots,
                               [int(c.size) for c in frame.cand])
        if st.sanitizer is not None:
            st.sanitizer.check_frame(warp, frame, "frame entry")
        if new_level == st.last_level:
            self._consume_leaf(frame)
            return StepResult.RUNNING
        self.stack.push(frame)
        return StepResult.RUNNING

    def _consume_leaf(self, frame: Frame) -> None:
        """Count (or emit) the last level's candidates — Fig. 3 line 16."""
        st = self.state
        total = sum(int(c.size) for c in frame.cand)
        if total == 0:
            return
        if st.on_match is not None:
            prefix = tuple(self.stack.partial_match())
            slots = frame.slot_vertices.tolist()
            for u in range(frame.nslots):
                c = frame.cand[u]
                if c.size == 0:
                    continue
                mu = prefix + (slots[u],)
                for v in c.tolist():
                    st.on_match(mu + (v,))
        self._count_leaf(total)

    def _count_leaf(self, total: int) -> None:
        """Charge and book ``total`` leaf matches (no-op when zero)."""
        if total == 0:
            return
        self.warp.charge(self.warp.cost.warp_issue + self.warp.cost.global_access)
        self.warp.counters.matches += total
        if self.state.tracer is not None:
            self.state.tracer.on_leaf_matches(self.warp, total)
        self.state.add_matches(total)


def run_kernel(
    plan: MatchingPlan,
    config: EngineConfig,
    computer: CandidateComputer,
    device: VirtualDevice,
    root_range: tuple[int, int] | None = None,
    root_partition: tuple[int, int] | None = None,
    on_match: MatchCallback | None = None,
    resume_from: KernelSnapshot | None = None,
    checkpoint_interval: int | None = None,
    tracer: object | None = None,
    schedule_seed: int | None = None,
) -> KernelState:
    """Launch the kernel: one warp task per device warp, one launch total.

    ``root_range`` restricts the global chunk counter to a contiguous
    slice of the root candidates; ``root_partition = (owner,
    num_owners)`` shards it round-robin instead (the multi-GPU split of
    Fig. 11).  The two are mutually exclusive.

    ``checkpoint_interval`` (root chunks) arms periodic stack
    checkpointing; ``resume_from`` continues a checkpointed launch on
    this (identically shaped) device instead of starting fresh — warp
    clocks and counters are restored, so a resumed fault-free replay is
    cycle-identical to the uninterrupted run.  If the device carries a
    :class:`~repro.faults.FaultInjector`, scheduled faults abort the
    launch with :class:`KernelInterrupted` carrying the last snapshot.

    ``schedule_seed`` perturbs the scheduler's tie-breaking between
    equal-clock warps with a seeded RNG.  Only happens-before-unordered
    steps are reordered, so any seed must reproduce the same match
    count — the property the schedule explorer
    (:func:`repro.analysis.races.explore_schedules`) asserts.  ``None``
    (the default) keeps the canonical FIFO order.
    """
    if root_range is not None and root_partition is not None:
        raise ValueError("root_range and root_partition are mutually exclusive")
    total_roots = computer.root_candidates.size
    start, end = root_range if root_range is not None else (0, total_roots)
    owner, num_owners = root_partition if root_partition is not None else (0, 1)
    chunks = ChunkIterator(
        total=end,
        chunk_size=config.chunk_size,
        start=start,
        owner=owner,
        num_owners=num_owners,
    )
    injector = device.injector
    board = GlobalStealBoard(
        num_blocks=device.num_blocks,
        warps_per_block=config.device.warps_per_block,
        injector=injector,
        tracer=tracer,
    )
    sanitizer = None
    if config.sanitize:
        # late import: repro.analysis depends on core for types
        from repro.analysis.sanitizer import StealSanitizer

        sanitizer = StealSanitizer(plan, config)
    state = KernelState(
        plan=plan,
        config=config,
        computer=computer,
        device=device,
        chunks=chunks,
        board=board,
        on_match=on_match,
        sanitizer=sanitizer,
        tracer=tracer,
        last_level=plan.size - 1,
        count_leaves=on_match is None and sanitizer is None,
    )
    state.tasks = [WarpTask(w, state) for w in device.warps]
    state.block_active = [0] * device.num_blocks
    if tracer is not None:
        tracer.on_kernel_start(len(state.tasks))
    if checkpoint_interval is not None:
        state.checkpointer = Checkpointer(checkpoint_interval)
    if resume_from is not None:
        state.restore(resume_from)
        if state.checkpointer is not None:
            state.checkpointer.rearm(resume_from)
        if sanitizer is not None:
            # the snapshot's stacks own roots issued before the cut;
            # seed conservation tracking so X505 stays sound on resume
            frames = [f for t in state.tasks for f in t.stack.frames]
            frames += [f for pw in state.board.slots if pw is not None
                       for f in pw.work.frames]
            sanitizer.seed_outstanding(frames)
    else:
        # one kernel launch: charge every warp the launch latency (a
        # resume restores clocks that already include it)
        for w in device.warps:
            w.charge(w.cost.kernel_launch, busy=False)
    runnable = [t for t in state.tasks if t.runnable]
    tiebreak = None
    if schedule_seed is not None:
        import numpy as np

        rng = np.random.default_rng(schedule_seed)
        tiebreak = lambda _t: float(rng.random())  # noqa: E731
    sched: EventScheduler[WarpTask] = EventScheduler(
        runnable,
        clock_of=attrgetter("warp.clock"),
        # looked up per launch, so a class-level wrapper sees every step
        step=WarpTask.step,
        watchdog=device.check_faults if injector is not None else None,
        tracer=tracer,
        tiebreak=tiebreak,
    )
    try:
        sched.run()
    except InjectedFault as e:
        ckpt = state.checkpointer.last if state.checkpointer is not None else None
        raise KernelInterrupted(e, checkpoint=ckpt) from e
    if sanitizer is not None:
        sanitizer.finalize(state)
    # kernel retired: warps that were spinning idle at the end accrue
    # idle time up to the makespan
    makespan = device.makespan_cycles()
    for w in device.warps:
        w.sync_to(makespan)
    return state
