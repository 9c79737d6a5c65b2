"""Run-time operations of a lowered level program.

Each method of :class:`LevelOps` does one step of the vectorized
``getCandidates`` — the NumPy work *and* the ``Warp`` charge / tracer
call that goes with it — so the charge sequence of both tiers is
written exactly once.  The interpreted tier
(``CandidateComputer.compute_frame``) and the emitted kernels
(``repro.codegen.emit``) both only decide *which* of these to call, in
the order :func:`repro.core.lowering.lower` fixed.

Candidate data flows as ``(values, segments)`` pairs: all slots'
elements in one segment-sorted array.  Charges equal the per-slot
Fig. 7 reference's (``tests/oracle.py``) call for call (same amounts, same order); the three
count-only leaves charge what materializing and filtering their
candidates would have cost, without building them.  Graph reads go
through the graph-read API (``neighbors``, ``neighbors_batch``,
``degree``, ``self_loop_mask``) only, so overlays and partition views
serve their own rows.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Any, ClassVar, NamedTuple, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.virtgpu.warp import Warp

from .lowering import Leaf
from .membership import member_sorted
from .stack import Frame, WarpStack

__all__ = ["LevelOps", "Operand", "Window"]

Segmented = tuple[np.ndarray, np.ndarray]  # (values, segment ids), segment-sorted
#: ``(cand, lo, hi)``: the slots ``cand[lo:hi]`` of one parent slot's
#: candidate array, which the kernel consumes UNROLL at a time
Window = tuple[np.ndarray, int, int]


class Operand(NamedTuple):
    """One gathered neighbor list: per slot (``segs`` set, ``keys``
    when it is a set-op operand) or one prefix vertex's list shared by
    all slots (``segs is None``).  ``width`` is the longest list — the
    operand size the cost model prices a search against."""

    vals: np.ndarray
    segs: np.ndarray | None
    keys: np.ndarray | None
    width: int


class _LeafMemo:
    """One stack's count-only leaf state: its current ``plan`` (``None``
    until planned) under the ``shared`` set, and ``table``, which lives
    as long as ``shared`` does.

    ``table`` is built by the first ``leaf_flipped`` plan under a shared
    set ``ref`` and read by every later one: ``(keys, hits, members)``
    — the sorted distinct vertices of the reverse rows of ``ref``, how
    many rows list each (``hits[i] = |{r ∈ ref : keys[i] ∈ N_rev(r)}|``),
    and ``ref`` as a Python set.  Its size is Σ deg(ref), not n.
    """

    __slots__ = ("shared", "plan", "table")

    def __init__(self, shared: np.ndarray | None) -> None:
        self.shared = shared
        self.plan: _LeafPlan | None = None
        self.table: tuple[np.ndarray, np.ndarray, set[int]] | None = None


class _LeafPlan:
    """A count-only leaf's per-candidate vectors over the parent slots
    (*parts*) it covers, concatenated, and what a window's charges read.

    Part ``i`` is the array ``cands[i]`` counted under the prefix
    ``head + [own[i]]``; its candidates sit at ``offs[i]:offs[i + 1]``
    of the vectors.  A plan is bound to its parent ``frame`` and covers
    the slots ``first, first + 1, …`` of it.  The one-part plan is the
    same code with one part.
    """

    __slots__ = ("frame", "first", "cands", "own", "offs", "head", "counts")

    leaf: ClassVar[Leaf]  # the leaf that builds it
    frame: Frame
    first: int
    cands: list[np.ndarray]
    own: list[int]
    offs: list[int]
    head: list[int]
    counts: np.ndarray

    def replay(self, warp: Warp, lo: int, hi: int) -> np.ndarray:
        """Window ``[lo, hi)`` of the vectors: its charges — same
        amounts, same order as evaluating the batch on its own — and
        its counts, a read-only view."""
        raise NotImplementedError


#: running sums of per-candidate set sizes and of their spill (LevelOps._running)
Sums = tuple["array[int]", "array[int] | None"]


def _prefix_sums(x: np.ndarray) -> "array[int]":
    """``[0, x0, x0 + x1, …]`` as machine ints: a window reads two of
    them as Python ints, and a frame's worth costs 8 bytes each."""
    out = array("q", _ZERO)
    out.frombytes(x.cumsum(dtype=np.int64).tobytes())
    return out


_ZERO = bytes(8)  # one int64 0


class _GatherFreePlan(_LeafPlan):
    """copy(T), spill, filter(T) from the running sums of row lengths."""

    leaf = Leaf.GATHER_FREE
    __slots__ = ("sums",)
    sums: Sums

    def replay(self, warp: Warp, lo: int, hi: int) -> np.ndarray:
        run, over = self.sums
        total = run[hi] - run[lo]
        warp.charge_copy(total)
        if over is not None:
            _charge_spill(warp, over[hi] - over[lo])
        if total:
            warp.charge_filter(total)
        out: np.ndarray = self.counts[lo:hi]
        return out


class _FlippedPlan(_LeafPlan):
    """set_op(|ref| · nslots, longest row), then spill and filter(kept)
    from the running sums of the kept sizes."""

    leaf = Leaf.FLIPPED
    __slots__ = ("nref", "widths", "sums")
    nref: int
    widths: list[int]
    sums: Sums

    def replay(self, warp: Warp, lo: int, hi: int) -> np.ndarray:
        nslots = hi - lo
        total = self.nref * nslots
        _charge_set_op(warp, nslots if total else 0, total, max(self.widths[lo:hi]))
        run, over = self.sums
        if over is not None:
            _charge_spill(warp, over[hi] - over[lo])
        kept = run[hi] - run[lo]
        if kept:
            warp.charge_filter(kept)
        out: np.ndarray = self.counts[lo:hi]
        return out


class _TallyPlan(_LeafPlan):
    """filter(nslots · |ca|); nothing when ``ca`` is empty."""

    leaf = Leaf.TALLY
    __slots__ = ("m",)
    m: int

    def replay(self, warp: Warp, lo: int, hi: int) -> np.ndarray:
        if self.m:
            warp.charge_filter(self.m * (hi - lo))
        out: np.ndarray = self.counts[lo:hi]
        return out


def _floor(m_prefix: list[int], positions: tuple[int, ...]) -> int:
    """Symmetry floor from the restricted prefix positions (-1: none)."""
    return max([m_prefix[i] for i in positions]) if positions else -1


def _charge_spill(warp: Warp, over: int) -> None:
    """Host-memory penalty for ``over`` elements past their ``C`` slots."""
    if over:
        warp.charge(warp.cost.host_access * warp.cost.rounds(over))


def _charge_set_op(warp: Warp, num_slots: int, total: int, width: int) -> None:
    warp.charge_set_op(total, max(width, 1))
    tracer: Any = warp.tracer
    if tracer is not None:
        tracer.on_combined_set_op(warp, num_slots, total, width)


class LevelOps:
    """The graph-dependent tables one (graph, plan, config) triple needs
    plus the per-stack leaf memos; shared by all warps of a run."""

    def __init__(
        self,
        graph: CSRGraph,
        slot_capacity: int,
        luts: dict[int, np.ndarray],
    ) -> None:
        self.graph = graph
        self.labels = graph.labels
        self.n = graph.num_vertices
        self.cap = slot_capacity
        self.luts = luts  # set id -> boolean label LUT
        # seg ids are read-only (they feed repeat/tile), so one arange
        # per distinct slot count is shared
        self._seg_cache: dict[int, np.ndarray] = {}
        # id(stack) -> the last level's leaf plan (_LeafMemo).  A plan
        # has one leaf kind, so one table serves whichever leaf it is;
        # plans are validated by frame and array identity on every use
        # (``replay``; the walk's leaves compare the prefix too), and
        # hold strong references, so an id cannot be recycled while
        # its entry is trusted.
        self._memo: dict[int, _LeafMemo] = {}
        self._loops: dict[bool, np.ndarray | None] = {}

    # -- gathers and bases ---------------------------------------------------

    def _graph(self, inbound: bool) -> CSRGraph:
        """The graph whose rows are the out- (or in-) neighbor lists."""
        return self.graph.reversed_view() if inbound else self.graph

    def _seg_ids(self, nslots: int) -> np.ndarray:
        got = self._seg_cache.get(nslots)
        if got is None:
            got = self._seg_cache[nslots] = np.arange(nslots, dtype=np.int64)
        return got

    def _split(self, values: np.ndarray, segments: np.ndarray, nslots: int) -> list[np.ndarray]:
        """Per-slot views of a segment-sorted ``(values, segments)`` pair."""
        if nslots == 1:
            return [values]
        bounds = segments.searchsorted(self._seg_ids(nslots)).tolist()
        bounds.append(values.size)
        return [values[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def gather_slots(self, slot_arr: np.ndarray, inbound: bool, keyed: bool) -> Operand:
        """The slots' own neighbor lists: one batched gather."""
        g = self._graph(inbound)
        vals, offs = g.neighbors_batch(slot_arr)
        lens = offs[1:] - offs[:-1]
        segs = self._seg_ids(slot_arr.size).repeat(lens)
        if not keyed:
            return Operand(vals, segs, None, 0)
        return Operand(vals, segs, vals + segs * self.n, max(lens.tolist()))

    def gather_prefix(self, vertex: int, inbound: bool) -> Operand:
        """One already-matched vertex's list, shared by every slot."""
        vals = self._graph(inbound).neighbors(vertex)
        return Operand(vals, None, None, int(vals.size))

    def tile(self, arr: np.ndarray, nslots: int) -> Segmented:
        """``arr`` once per slot."""
        return np.concatenate((arr,) * nslots), self._seg_ids(nslots).repeat(arr.size)

    # -- set steps -----------------------------------------------------------

    def set_op(self, warp: Warp, vals: np.ndarray, segs: np.ndarray, opnd: Operand,
               difference: bool) -> Segmented:
        """Intersect each slot's values with (or subtract) its operand:
        one sorted search for the whole batch (Fig. 8), keyed by
        ``value + segment * n`` when the operand differs per slot."""
        total = vals.size
        _charge_set_op(warp, int(segs[-1]) + 1 if total else 0, total, opnd.width)
        if not total:
            return vals, segs
        if opnd.keys is None:
            found = member_sorted(opnd.vals, vals)
        else:
            found = member_sorted(opnd.keys, vals + segs * self.n)
        if difference:
            np.logical_not(found, out=found)
        return vals[found], segs[found]

    def seal(self, warp: Warp, vals: np.ndarray, segs: np.ndarray,
             label_sid: int | None, nslots: int, copied: bool = False) -> Segmented:
        """Finish a set: the copy charge of an op-less recipe (its base
        is stored into ``C`` as is, e.g. C1 = N(v0)), the merged label
        filter, then the host-memory penalty for slots that outgrow one
        ``C`` slot."""
        if copied:
            warp.charge_copy(int(vals.size))
        if label_sid is not None and vals.size:
            keep = self.luts[label_sid][self._labels_of(vals)]
            vals, segs = vals[keep], segs[keep]
        if vals.size > self.cap:
            # a slot can only spill when the whole batch outgrows one
            counts = np.bincount(segs, minlength=nslots)
            _charge_spill(warp, int(np.maximum(counts - self.cap, 0).sum()))
        return vals, segs

    def _labels_of(self, vals: np.ndarray) -> np.ndarray:
        if self.labels is None:
            raise ValueError("labeled plan on unlabeled data graph")
        out: np.ndarray = self.labels[vals]
        return out

    # -- fused candidate filter + frame assembly -------------------------------

    def finish(
        self,
        warp: Warp,
        level: int,
        slot_arr: np.ndarray,
        m_prefix: list[int],
        cand: Segmented,
        floor_positions: tuple[int, ...],
        uses_slot: bool,
        label: int | None,
        count_only: bool,
        sets: dict[int, Segmented],
    ) -> Frame | np.ndarray:
        """Filter the level's raw candidates and build the frame (or,
        ``count_only``, the per-slot counts).

        Injectivity, the symmetry floor and the level label are
        independent elementwise predicates, so one fused mask
        replaces the per-slot reference's sequential compactions (same
        surviving set, same one ``charge_filter`` over the unfiltered
        size).
        """
        cvals, csegs = cand
        nslots = slot_arr.size
        total = cvals.size
        if total:
            slot_of = slot_arr[csegs]
            floor = _floor(m_prefix, floor_positions)
            if uses_slot:  # x > slot already excludes x == slot
                keep = cvals > (np.maximum(slot_of, floor) if floor >= 0 else slot_of)
            else:
                keep = cvals != slot_of
                if floor >= 0:
                    keep &= cvals > floor
            for w in m_prefix:  # injectivity; x > floor already excludes w <= floor
                if w > floor:
                    keep &= cvals != w
            if label is not None:
                keep &= self._labels_of(cvals) == label
            csegs = csegs[keep]
            warp.charge_filter(total)
        if count_only:
            return np.bincount(csegs, minlength=nslots).astype(np.int64, copy=False)
        if total:
            cvals = cvals[keep]
        return Frame(
            level=level,
            slot_vertices=slot_arr,
            cand=self._split(cvals, csegs, nslots),
            sets={sid: self._split(v, s, nslots) for sid, (v, s) in sets.items()},
        )

    # -- count-only leaves -------------------------------------------------------
    #
    # Callers guarantee level >= 2 (a non-empty prefix) and an unpinned
    # last level.  The slots are ``cand[lo:hi]`` of a :data:`Window`:
    # UNROLL sizes the *charges* (a warp has 32 lanes), not the host
    # work, so the first batch under a parent frame plans the
    # per-candidate vectors of the frame's remaining slots (or of its
    # active slot alone: ``LevelProgram.frame_wide``) in one pass, and
    # every batch replays its window of them — same charges, same
    # order, same amounts as evaluating the batch on its own.  A
    # candidate is never in the prefix (injectivity at level - 1
    # already dropped it).  Returned counts are read-only views of the
    # plan.

    def self_loops(self, inbound: bool) -> np.ndarray | None:
        """Boolean mask of the vertices listed in their own out- (or
        in-) neighbor list, ``None`` when there are none.  The graph
        answers from its arrays (``self_loop_mask``), reading no row
        through the row API."""
        if inbound not in self._loops:
            mask = self._graph(inbound).self_loop_mask()
            self._loops[inbound] = mask if mask.any() else None
        return self._loops[inbound]

    def replay(self, warp: Warp, stack: WarpStack, win: Window) -> np.ndarray | None:
        """The counts of ``win`` from the plan ``stack``'s parent frame
        holds, its charges issued; ``None`` when no plan covers it.

        The check is identity only: the plan's frame is the top frame
        and its part for the active slot is the window's array.  While
        a frame is on top the frames below it keep their active slots,
        so the prefix and the shared set cannot move under the plan;
        a steal split, a reabsorbed tail and a cloned frame are new
        objects and re-plan through the walk.
        """
        ent = self._memo.get(id(stack))
        if ent is None:
            return None
        plan = ent.plan
        f = stack.frames[-1]
        if plan is None or plan.frame is not f:
            return None
        i = f.uiter - plan.first
        if not 0 <= i < len(plan.cands) or plan.cands[i] is not win[0]:
            return None
        off = plan.offs[i]
        return plan.replay(warp, off + win[1], off + win[2])

    def _planned(self, stack: WarpStack, win: Window, m_prefix: list[int],
                 shared: np.ndarray | None) -> tuple[_LeafMemo, _LeafPlan | None, int]:
        """``stack``'s memo (a fresh one under a new shared set), its
        plan and the offset of ``win``'s part in it; the plan is
        ``None`` when it does not cover ``win`` under ``m_prefix``."""
        ent = self._memo.get(id(stack))
        if ent is None or ent.shared is not shared:
            ent = self._memo[id(stack)] = _LeafMemo(shared)
            return ent, None, 0
        plan = ent.plan
        if plan is None or plan.frame is not stack.frames[-1]:
            return ent, None, 0
        i = plan.frame.uiter - plan.first
        if (0 <= i < len(plan.cands) and plan.cands[i] is win[0]
                and plan.own[i] == m_prefix[-1] and plan.head == m_prefix[:-1]):
            return ent, plan, plan.offs[i]
        return ent, None, 0

    def _new_plan(self, ent: _LeafMemo, plan: _LeafPlan, stack: WarpStack, win: Window,
                  m_prefix: list[int], frame_wide: bool) -> np.ndarray:
        """Fill in what ``plan`` covers and install it, bound to the
        parent (top) frame; returns its candidates, concatenated.  The
        window's part is the first.  A window cut from the frame's
        active slot (the kernel's) covers, ``frame_wide``, every later
        slot with candidates too; any other window is a one-part plan
        of its own array."""
        cand = win[0]
        f = stack.frames[-1]
        u = f.uiter
        plan.frame, plan.first = f, u
        stop = u + 1
        if frame_wide and cand is f.cand[u]:
            stop = len(f.cand)
            while stop > u + 1 and not f.cand[stop - 1].size:  # no window cuts these
                stop -= 1
        plan.head = m_prefix[:-1]
        ent.plan = plan
        if stop == u + 1:
            plan.cands, plan.own, plan.offs = [cand], m_prefix[-1:], [0, cand.size]
            return cand
        parts = plan.cands = f.cand[u:stop]
        plan.own = f.slot_vertices[u:stop].tolist()
        plan.offs = list(accumulate([c.size for c in parts], initial=0))
        return np.concatenate(parts)

    def _running(self, sizes: np.ndarray, most: int | None = None) -> Sums:
        """Running sums (leading 0) of per-candidate set sizes and of
        what each spills past one ``C`` slot (``None``: none does), so
        a window's totals are two subtractions.  ``most`` is an upper
        bound on the sizes, when the caller has one: at or under the
        slot capacity nothing spills and no max is taken."""
        over = None
        if (most is None or most > self.cap) and int(sizes.max()) > self.cap:
            over = _prefix_sums(np.maximum(sizes - self.cap, 0))
        return _prefix_sums(sizes), over

    def _uncount(self, counts: np.ndarray, cand: np.ndarray, offs: list[int],
                 shared: list[int], own: Sequence[int | None], inbound: bool) -> None:
        """Uncount each used vertex where it is adjacent to the
        candidate (w ∈ N(v) ⟺ v ∈ N_reverse(w), as w ≠ v): the
        ``shared`` vertices in every part, ``own[i]`` in part ``i``
        only (``None``: none).

        Rows every candidate uses — ``shared``, and the own vertex of a
        one-part plan — are concatenated and sorted (two or three rows:
        slices time below one ``neighbors_batch``; docs/PERFORMANCE.md,
        "Count-only leaves from the shared set's side"), and list a
        candidate once per used vertex adjacent to it.  The parts' own
        rows are keyed ``part · n + vertex`` (one sorted array, as each
        row is) and searched once with the keyed candidates."""
        rev = self._graph(not inbound)
        owned: list[tuple[int, int]] = []
        if len(own) == 1:
            w = own[0]
            if w is not None:
                shared = [*shared, w]
        else:
            owned = [(i, w) for i, w in enumerate(own) if w is not None and offs[i + 1] > offs[i]]
        if shared:
            hay = (rev.neighbors(shared[0]) if len(shared) == 1
                   else np.sort(np.concatenate([rev.neighbors(w) for w in shared])))
            counts -= hay.searchsorted(cand, "right") - hay.searchsorted(cand, "left")
        if owned:
            n = self.n
            parts, vs = zip(*owned)
            vals, roffs = rev.neighbors_batch(np.array(vs, dtype=np.int64))
            hay = vals + (np.array(parts, dtype=np.int64) * n).repeat(roffs[1:] - roffs[:-1])
            sizes = [hi - lo for lo, hi in zip(offs, offs[1:])]
            counts -= member_sorted(hay, cand + self._seg_ids(len(own)).repeat(sizes) * n)

    def leaf_gather_free(self, warp: Warp, stack: WarpStack, win: Window,
                         m_prefix: list[int], inbound: bool, frame_wide: bool) -> np.ndarray:
        """Candidates are the slots' own neighbor lists, unfiltered
        apart from injectivity: the counts are row lengths minus the
        used vertices present in each row, and no value is gathered.
        Charges: copy(T), spill, filter(T) with the gathered path's T.
        """
        ent, plan, off = self._planned(stack, win, m_prefix, None)
        if plan is None:
            plan = _GatherFreePlan()
            cand = self._new_plan(ent, plan, stack, win, m_prefix, frame_wide)
            lens: np.ndarray = np.asarray(self._graph(inbound).degree())[cand]
            counts = lens.copy()
            loops = self.self_loops(inbound)
            if loops is not None:
                counts -= loops[cand]
            self._uncount(counts, cand, plan.offs, plan.head, plan.own, inbound)
            plan.counts, plan.sums = counts, self._running(lens)
        return plan.replay(warp, off + win[1], off + win[2])

    def leaf_flipped(self, warp: Warp, stack: WarpStack, win: Window,
                     m_prefix: list[int], ref: np.ndarray, inbound: bool,
                     frame_wide: bool) -> np.ndarray:
        """Candidates are ``ref ∩ N(slot)`` for a shared earlier set
        ``ref``, counted from ``ref``'s side: r ∈ N(v) ⟺ v ∈ N_rev(r),
        so one reverse gather of ``ref``'s rows, reduced to per-vertex
        hit counts (``_LeafMemo.table``, once per stack and ``ref``),
        answers every slot by a sorted lookup — no row of a candidate
        is read.  Charges: set_op(|ref| · nslots, longest row in the
        window), spill, filter(kept), as tiled.
        """
        ent, plan, off = self._planned(stack, win, m_prefix, ref)
        if plan is None:
            plan = _FlippedPlan()
            cand = self._new_plan(ent, plan, stack, win, m_prefix, frame_wide)
            if ent.table is None:
                vals, _ = self._graph(not inbound).neighbors_batch(ref)
                keys, hits = np.unique(vals, return_counts=True)
                ent.table = (keys, hits.astype(np.int64, copy=False), set(ref.tolist()))
            keys, hits, members = ent.table
            if keys.size:
                pos = keys.searchsorted(cand)
                kept = hits.take(pos, mode="clip")
                kept[keys.take(pos, mode="clip") != cand] = 0
            else:
                kept = np.zeros(cand.size, dtype=np.int64)
            # The two views can disagree only at r = v: a reversed view
            # drops self-loops (CSRGraph.reversed_view), so r = v counts
            # in the table by N_rev's loops and in N(v) by N's own.
            loops, rloops = self.self_loops(inbound), self.self_loops(not inbound)
            if loops is not None or rloops is not None:
                in_ref = member_sorted(ref, cand)
                if rloops is not None:
                    kept -= in_ref & rloops[cand]
            counts = kept.copy()  # a candidate is never the slot itself
            if loops is not None:
                kept += in_ref & loops[cand]
            self._uncount(counts, cand, plan.offs, [w for w in plan.head if w in members],
                          [w if w in members else None for w in plan.own], inbound)
            plan.counts, plan.nref = counts, int(ref.size)
            plan.widths = np.asarray(self._graph(inbound).degree())[cand].tolist()
            plan.sums = self._running(kept, plan.nref)
        return plan.replay(warp, off + win[1], off + win[2])

    def leaf_tally(
        self,
        warp: Warp,
        stack: WarpStack,
        win: Window,
        m_prefix: list[int],
        ca: np.ndarray,
        floor_positions: tuple[int, ...],
        uses_slot: bool,
        label: int | None,
        frame_wide: bool,
    ) -> np.ndarray:
        """Candidates are one shared earlier set ``ca``: every slot
        would tile, mask and count the same sorted array, so the tally
        is closed-form.  Charge: filter(nslots · |ca|), as tiled, none
        when ``ca`` is empty.
        """
        ent, plan, off = self._planned(stack, win, m_prefix, ca)
        if plan is None:
            plan = _TallyPlan()
            cand = self._new_plan(ent, plan, stack, win, m_prefix, frame_wide)
            plan.m = int(ca.size)
            plan.counts = self._tally(cand, plan, ca, _floor(m_prefix, floor_positions),
                                      uses_slot, label)
        return plan.replay(warp, off + win[1], off + win[2])

    def _tally(self, cand: np.ndarray, plan: _LeafPlan, ca: np.ndarray, floor: int,
               uses_slot: bool, label: int | None) -> np.ndarray:
        """Per candidate, the members of sorted ``ca`` that pass the
        fused filter under its part's prefix.  The vertices every
        candidate uses (``plan.head``, plus the own vertex of a one-part
        plan) are settled once: unlabeled, the membership test is
        inverted (the few used vertices are searched in ``ca``), so no
        O(|ca|) array is built; labelled, one mask over ``ca`` and
        sorted cuts.  Each part's own vertex of a
        multi-part plan is then uncounted in its part only.  ``floor``
        is the same for every part (a floor reading the own vertex
        makes a one-part plan)."""
        m = int(ca.size)
        if m == 0:
            return np.zeros(cand.size, dtype=np.int64)
        one = len(plan.own) == 1
        used = np.asarray(plan.head + plan.own if one else plan.head, dtype=ca.dtype)
        keep = None
        if label is not None:
            keep = member_sorted(np.sort(used), ca)
            np.logical_not(keep, out=keep)
            keep &= self._labels_of(ca) == label
        else:
            hit = used[member_sorted(ca, used)]
        counts: np.ndarray
        if uses_slot:
            # the floor is at least the slot's own vertex, so x > floor
            # already excludes x == slot
            floors = np.maximum(cand, floor)
            fpos = ca.searchsorted(floors, side="right")
            if keep is not None:
                below = np.zeros(m + 1, dtype=np.int64)
                keep.cumsum(out=below[1:])
                counts = below[m] - below[fpos]
            else:
                counts = (m - fpos).astype(np.int64)
                counts -= (hit[None, :] > floors[:, None]).sum(axis=1)
        else:
            # one floor for every slot: a scalar base count, minus the
            # slot's own vertex where it survives
            cut = int(ca.searchsorted(floor, side="right"))
            if keep is not None:
                base = int(np.count_nonzero(keep[cut:]))
            else:
                base = m - cut - int(np.count_nonzero(hit > floor))
            spos = ca.searchsorted(cand)
            np.minimum(spos, m - 1, out=spos)
            slot_hit = ca[spos] == cand
            if floor >= 0:
                slot_hit &= cand > floor
            if keep is not None:
                slot_hit &= keep[spos]
            counts = base - slot_hit.astype(np.int64)
        if one:
            return counts
        # each part's own vertex w, where it survives the filter: in ca,
        # above the floor (and above the slot, when the slot is restricted)
        w = np.asarray(plan.own, dtype=np.int64)
        drop = member_sorted(ca, w)
        if not drop.any():
            return counts
        drop &= w > floor
        if keep is not None:
            drop &= keep[ca.searchsorted(w).clip(max=m - 1)]
        sizes = [hi - lo for lo, hi in zip(plan.offs, plan.offs[1:])]
        per = drop.repeat(sizes)
        if uses_slot:
            per &= w.repeat(sizes) > cand
        counts -= per
        return counts
