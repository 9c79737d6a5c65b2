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
``degree``) only, so overlays and partition views serve their own rows.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.virtgpu.warp import Warp

from .membership import member_sorted
from .stack import Frame, WarpStack

__all__ = ["LevelOps", "Operand", "Window"]

Segmented = tuple[np.ndarray, np.ndarray]  # (values, segment ids), segment-sorted
#: ``(cand, lo, hi)``: the slots ``cand[lo:hi]`` of one parent slot's
#: candidate array, which the kernel consumes UNROLL at a time
Window = tuple[np.ndarray, int, int]

_SCAN_CHUNK = 1 << 16


class Operand(NamedTuple):
    """One gathered neighbor list: per slot (``offs`` / ``segs`` set,
    ``keys`` when it is a set-op operand) or one prefix vertex's list
    shared by all slots (``offs is None``).  ``width`` is the longest
    list — the operand size the cost model prices a search against."""

    vals: np.ndarray
    offs: np.ndarray | None
    segs: np.ndarray | None
    keys: np.ndarray | None
    width: int
    vertex: int
    inbound: bool


class _LeafMemo:
    """One stack's count-only leaf state: the plan of one parent slot
    (``cand`` under ``prefix`` and the ``shared`` set; ``None`` until
    planned) and ``table``, which lives as long as ``shared`` does.

    ``table`` is built by the first ``leaf_flipped`` plan under a shared
    set ``ref`` and read by every later one: ``(keys, hits, members)``
    — the sorted distinct vertices of the reverse rows of ``ref``, how
    many rows list each (``hits[i] = |{r ∈ ref : keys[i] ∈ N_rev(r)}|``),
    and ``ref`` as a Python set.  Its size is Σ deg(ref), not n.
    """

    __slots__ = ("cand", "prefix", "shared", "plan", "table")

    def __init__(self, shared: np.ndarray | None) -> None:
        self.cand: np.ndarray | None = None
        self.prefix: list[int] = []
        self.shared = shared
        self.plan: Any = None
        self.table: tuple[np.ndarray, np.ndarray, set[int]] | None = None


def _floor(m_prefix: list[int], positions: tuple[int, ...]) -> int:
    """Symmetry floor from the restricted prefix positions (-1: none)."""
    return max([m_prefix[i] for i in positions]) if positions else -1


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
        graph_degree: np.ndarray | None,
        bitmap: dict[int, np.ndarray] | None,
        bitmap_in: dict[int, np.ndarray] | None,
    ) -> None:
        self.graph = graph
        self.labels = graph.labels
        self.n = graph.num_vertices
        self.cap = slot_capacity
        self.luts = luts  # set id -> boolean label LUT
        self.graph_degree = graph_degree
        self.bitmap = bitmap
        self.bitmap_in = bitmap_in
        # seg ids are read-only (they feed repeat/tile), so one arange
        # per distinct slot count is shared
        self._seg_cache: dict[int, np.ndarray] = {}
        # id(stack) -> the last level's leaf plan (_leaf_memo).  A plan
        # has one leaf kind, so one table serves whichever leaf it is;
        # entries are validated by array identity / prefix equality on
        # every use (a strong reference is held, so an id cannot be
        # recycled while its entry is trusted).
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
            return Operand(vals, offs, segs, None, 0, -1, inbound)
        return Operand(vals, offs, segs, vals + segs * self.n, max(lens.tolist()), -1, inbound)

    def gather_prefix(self, vertex: int, inbound: bool) -> Operand:
        """One already-matched vertex's list, shared by every slot."""
        vals = self._graph(inbound).neighbors(vertex)
        return Operand(vals, None, None, None, int(vals.size), vertex, inbound)

    def tile(self, arr: np.ndarray, nslots: int) -> Segmented:
        """``arr`` once per slot."""
        return np.concatenate((arr,) * nslots), self._seg_ids(nslots).repeat(arr.size)

    # -- set steps -----------------------------------------------------------

    def bitmap_found(self, vals: np.ndarray, segs: np.ndarray, opnd: Operand,
                     slot_arr: np.ndarray) -> np.ndarray | None:
        """Membership mask via the adjacency-bitmap index, or ``None``
        when no bitmap row covers the operand vertex.  Bitmap hits are
        exact set membership; only host time changes."""
        bm = self.bitmap_in if opnd.inbound else self.bitmap
        if bm is None or vals.size == 0:
            return None
        found: np.ndarray
        if opnd.offs is None:
            row = bm.get(opnd.vertex)
            if row is None:
                return None
            found = row[vals]
            return found
        slots = slot_arr.tolist()
        if not any(v in bm for v in slots):
            return None
        found = np.empty(vals.size, dtype=bool)
        bounds = segs.searchsorted(self._seg_ids(len(slots) + 1)).tolist()
        offs = opnd.offs.tolist()
        for u, v in enumerate(slots):
            sl = slice(bounds[u], bounds[u + 1])
            row = bm.get(v)
            if row is not None:
                found[sl] = row[vals[sl]]
            else:
                found[sl] = member_sorted(opnd.vals[offs[u]:offs[u + 1]], vals[sl])
        return found

    def set_op(self, warp: Warp | None, vals: np.ndarray, segs: np.ndarray, opnd: Operand,
               difference: bool, found: np.ndarray | None = None) -> Segmented:
        """Intersect each slot's values with (or subtract) its operand:
        one sorted search for the whole batch (Fig. 8), keyed by
        ``value + segment * n`` when the operand differs per slot.  The
        charge is always the binary-search cost model's, whatever
        computed ``found``."""
        total = vals.size
        if warp is not None:
            _charge_set_op(warp, int(segs[-1]) + 1 if total else 0, total, opnd.width)
        if not total:
            return vals, segs
        if found is None:
            if opnd.keys is None:
                found = member_sorted(opnd.vals, vals)
            else:
                found = member_sorted(opnd.keys, vals + segs * self.n)
        if difference:
            np.logical_not(found, out=found)
        return vals[found], segs[found]

    def seal(self, warp: Warp | None, vals: np.ndarray, segs: np.ndarray,
             label_sid: int | None, nslots: int, copied: bool = False) -> Segmented:
        """Finish a set: the copy charge of an op-less recipe (its base
        is stored into ``C`` as is, e.g. C1 = N(v0)), the merged label
        filter, then the host-memory penalty for slots that outgrow one
        ``C`` slot."""
        if copied and warp is not None:
            warp.charge_copy(int(vals.size))
        if label_sid is not None and vals.size:
            keep = self.luts[label_sid][self._labels_of(vals)]
            vals, segs = vals[keep], segs[keep]
        if warp is not None and vals.size > self.cap:
            # a slot can only spill when the whole batch outgrows one
            counts = np.bincount(segs, minlength=nslots)
            self._charge_spill(warp, int(np.maximum(counts - self.cap, 0).sum()))
        return vals, segs

    def _labels_of(self, vals: np.ndarray) -> np.ndarray:
        if self.labels is None:
            raise ValueError("labeled plan on unlabeled data graph")
        out: np.ndarray = self.labels[vals]
        return out

    def _degrees_of(self, vals: np.ndarray) -> np.ndarray:
        assert self.graph_degree is not None  # a need > 1 exists only under degree_filter
        out: np.ndarray = self.graph_degree[vals]
        return out

    def _charge_spill(self, warp: Warp, over: int) -> None:
        """Host-memory penalty for ``over`` elements past their ``C`` slots."""
        if over:
            warp.charge(warp.cost.host_access * warp.cost.rounds(over))

    # -- fused candidate filter + frame assembly -------------------------------

    def finish(
        self,
        warp: Warp | None,
        level: int,
        slot_arr: np.ndarray,
        m_prefix: list[int],
        cand: Segmented,
        floor_positions: tuple[int, ...],
        uses_slot: bool,
        label: int | None,
        need: int,
        count_only: bool,
        sets: dict[int, Segmented],
    ) -> Frame | np.ndarray:
        """Filter the level's raw candidates and build the frame (or,
        ``count_only``, the per-slot counts).

        Injectivity, the symmetry floor, the level label and the degree
        need are independent elementwise predicates, so one fused mask
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
            if need > 1:
                keep &= self._degrees_of(cvals) >= need
            csegs = csegs[keep]
            if warp is not None:
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
    # work, so the first batch of a parent slot plans the per-candidate
    # vectors for the whole array in one pass and every batch replays
    # its window of them — same charges, same order, same amounts as
    # evaluating the batch on its own.  A candidate is never in the
    # prefix (injectivity at level - 1 already dropped it).  Returned
    # counts are read-only views of the plan.

    def self_loops(self, inbound: bool) -> np.ndarray | None:
        """Boolean mask of the vertices listed in their own out- (or
        in-) neighbor list, ``None`` when there are none.  One chunked
        scan of the rows per graph object, cached on it (same attach
        idiom as its ``_reversed_cache``)."""
        if inbound not in self._loops:
            g = self._graph(inbound)
            mask = getattr(g, "_selfloop_mask", None)
            if mask is None:
                mask = np.zeros(self.n, dtype=bool)
                for lo in range(0, self.n, _SCAN_CHUNK):
                    vs = np.arange(lo, min(lo + _SCAN_CHUNK, self.n), dtype=np.int64)
                    vals, offs = g.neighbors_batch(vs)
                    rows = vs.repeat(offs[1:] - offs[:-1])
                    mask[rows[vals == rows]] = True
                object.__setattr__(g, "_selfloop_mask", mask)
            self._loops[inbound] = mask if mask.any() else None
        return self._loops[inbound]

    def _leaf_memo(self, stack: WarpStack, cand: np.ndarray, m_prefix: list[int],
                   shared: np.ndarray | None) -> _LeafMemo:
        """``stack``'s memo, its plan dropped when the parent array or
        the prefix moved (steal splits, reabsorbed tails and restored
        checkpoints are new arrays, so they re-plan)."""
        ent = self._memo.get(id(stack))
        if ent is None or ent.shared is not shared:
            ent = self._memo[id(stack)] = _LeafMemo(shared)
        if ent.cand is not cand or ent.prefix != m_prefix:
            ent.cand, ent.prefix, ent.plan = cand, list(m_prefix), None
        return ent

    def _running(self, sizes: np.ndarray, most: int | None = None,
                 ) -> tuple[list[int], list[int] | None]:
        """Running sums (Python ints, leading 0) of per-candidate set
        sizes and of what each spills past one ``C`` slot (``None``:
        none does), so a window's totals are two subtractions.  ``most``
        is an upper bound on the sizes, when the caller has one: at or
        under the slot capacity nothing spills and no max is taken."""
        over = None
        if (most is None or most > self.cap) and int(sizes.max()) > self.cap:
            over = [0] + np.maximum(sizes - self.cap, 0).cumsum().tolist()
        return [0] + sizes.cumsum().tolist(), over

    def _charge_sealed(self, warp: Warp, sums: tuple[list[int], list[int] | None],
                       lo: int, hi: int) -> None:
        """Spill, then filter(total), of the window's candidate sets."""
        run, over = sums
        if over is not None:
            self._charge_spill(warp, over[hi] - over[lo])
        total = run[hi] - run[lo]
        if total:
            warp.charge_filter(total)

    def _drop_used(self, counts: np.ndarray, cand: np.ndarray, used: list[int],
                   inbound: bool) -> None:
        """Uncount each used vertex where it is adjacent to the
        candidate (w ∈ N(v) ⟺ v ∈ N_reverse(w), as w ≠ v): the used
        vertices' reverse rows, gathered into one sorted array, list a
        candidate once per used vertex it is adjacent to."""
        if not used:
            return
        rev = self._graph(not inbound)
        rows = [rev.neighbors(w) for w in used]
        # the two or three rows a plan drops: concatenated slices time
        # below one neighbors_batch (docs/PERFORMANCE.md, "Count-only
        # leaves from the shared set's side")
        hay = rows[0] if len(rows) == 1 else np.sort(np.concatenate(rows))
        counts -= hay.searchsorted(cand, "right") - hay.searchsorted(cand, "left")

    def leaf_gather_free(self, warp: Warp | None, stack: WarpStack, win: Window,
                         m_prefix: list[int], inbound: bool) -> np.ndarray:
        """Candidates are the slots' own neighbor lists, unfiltered
        apart from injectivity: the counts are row lengths minus the
        used vertices present in each row, and no value is gathered.
        Charges: copy(T), spill, filter(T) with the gathered path's T.
        """
        cand, lo, hi = win
        ent = self._leaf_memo(stack, cand, m_prefix, None)
        if ent.plan is None:
            lens: np.ndarray = np.asarray(self._graph(inbound).degree())[cand]
            counts = lens.copy()
            loops = self.self_loops(inbound)
            if loops is not None:
                counts -= loops[cand]
            self._drop_used(counts, cand, m_prefix, inbound)
            ent.plan = (counts, self._running(lens))
        counts, sums = ent.plan
        if warp is not None:
            warp.charge_copy(sums[0][hi] - sums[0][lo])
            self._charge_sealed(warp, sums, lo, hi)
        out: np.ndarray = counts[lo:hi]
        return out

    def leaf_flipped(self, warp: Warp | None, stack: WarpStack, win: Window,
                     m_prefix: list[int], ref: np.ndarray, inbound: bool) -> np.ndarray:
        """Candidates are ``ref ∩ N(slot)`` for a shared earlier set
        ``ref``, counted from ``ref``'s side: r ∈ N(v) ⟺ v ∈ N_rev(r),
        so one reverse gather of ``ref``'s rows, reduced to per-vertex
        hit counts (``_LeafMemo.table``, once per stack and ``ref``),
        answers every slot by a sorted lookup — no row of a candidate
        is read.  Charges: set_op(|ref| · nslots, longest row in the
        window), spill, filter(kept), as tiled.
        """
        cand, lo, hi = win
        ent = self._leaf_memo(stack, cand, m_prefix, ref)
        if ent.plan is None:
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
                own = member_sorted(ref, cand)
                if rloops is not None:
                    kept -= own & rloops[cand]
            counts = kept.copy()  # a candidate is never the slot itself
            if loops is not None:
                kept += own & loops[cand]
            self._drop_used(counts, cand, [w for w in m_prefix if w in members], inbound)
            widths = np.asarray(self._graph(inbound).degree())[cand].tolist()
            ent.plan = (counts, widths, self._running(kept, int(ref.size)))
        counts, widths, sums = ent.plan
        if warp is not None:
            nslots = hi - lo
            total = int(ref.size) * nslots
            _charge_set_op(warp, nslots if total else 0, total, max(widths[lo:hi]))
            self._charge_sealed(warp, sums, lo, hi)
        out: np.ndarray = counts[lo:hi]
        return out

    def leaf_tally(
        self,
        warp: Warp | None,
        stack: WarpStack,
        win: Window,
        m_prefix: list[int],
        ca: np.ndarray,
        floor_positions: tuple[int, ...],
        uses_slot: bool,
        label: int | None,
        need: int,
    ) -> np.ndarray:
        """Candidates are one shared earlier set ``ca``: every slot
        would tile, mask and count the same sorted array, so the tally
        is closed-form.  Charge: filter(nslots · |ca|), as tiled.
        """
        cand, lo, hi = win
        m = int(ca.size)
        if m == 0:
            return np.zeros(hi - lo, dtype=np.int64)
        if warp is not None:
            warp.charge_filter(m * (hi - lo))
        ent = self._leaf_memo(stack, cand, m_prefix, ca)
        if ent.plan is None:
            ent.plan = self._tally(cand, m_prefix, ca, _floor(m_prefix, floor_positions),
                                   uses_slot, label, need)
        out: np.ndarray = ent.plan[lo:hi]
        return out

    def _tally(self, slot_arr: np.ndarray, m_prefix: list[int], ca: np.ndarray, floor: int,
               uses_slot: bool, label: int | None, need: int) -> np.ndarray:
        """Per slot, the members of sorted ``ca`` that pass the fused
        filter.  Unlabeled with no degree need, the membership test is
        inverted (the few used vertices are searched in ``ca``), so no
        O(|ca|) array is built; otherwise one mask over ``ca`` and
        sorted cuts."""
        m = int(ca.size)
        used = np.asarray(m_prefix, dtype=ca.dtype)
        keep = None
        if label is not None or need > 1:
            keep = member_sorted(np.sort(used), ca)
            np.logical_not(keep, out=keep)
            if label is not None:
                keep &= self._labels_of(ca) == label
            if need > 1:
                keep &= self._degrees_of(ca) >= need
        else:
            hit = used[member_sorted(ca, used)]
        counts: np.ndarray
        if uses_slot:
            # the floor is at least the slot's own vertex, so x > floor
            # already excludes x == slot
            floors = np.maximum(slot_arr, floor)
            fpos = ca.searchsorted(floors, side="right")
            if keep is not None:
                below = np.zeros(m + 1, dtype=np.int64)
                keep.cumsum(out=below[1:])
                counts = below[m] - below[fpos]
            else:
                counts = (m - fpos).astype(np.int64)
                counts -= (hit[None, :] > floors[:, None]).sum(axis=1)
            return counts
        # one floor for every slot: a scalar base count, minus the
        # slot's own vertex where it survives
        cut = int(ca.searchsorted(floor, side="right"))
        if keep is not None:
            base = int(np.count_nonzero(keep[cut:]))
        else:
            base = m - cut - int(np.count_nonzero(hit > floor))
        spos = ca.searchsorted(slot_arr)
        np.minimum(spos, m - 1, out=spos)
        own = ca[spos] == slot_arr
        if floor >= 0:
            own &= slot_arr > floor
        if keep is not None:
            own &= keep[spos]
        counts = base - own.astype(np.int64)
        return counts
