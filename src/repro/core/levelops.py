"""Run-time operations of a lowered level program.

Each method of :class:`LevelOps` does one step of the vectorized
``getCandidates`` — the NumPy work *and* the ``Warp`` charge / tracer
call that goes with it — so the charge sequence of the fast tiers is
written exactly once.  The interpreted tier
(``CandidateComputer.compute_frame``) and the emitted kernels
(``repro.codegen.emit``) both only decide *which* of these to call, in
the order :func:`repro.core.lowering.lower` fixed.

Candidate data flows as ``(values, segments)`` pairs: all slots'
elements in one segment-sorted array.  Charges equal the per-slot
reference path's call for call (same amounts, same order); the three
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

__all__ = ["LevelOps", "Operand"]

Segmented = tuple[np.ndarray, np.ndarray]  # (values, segment ids), segment-sorted

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


def _split_segments(values: np.ndarray, segments: np.ndarray, nslots: int) -> list[np.ndarray]:
    """Per-slot views of a segment-sorted ``(values, segments)`` pair."""
    if nslots == 1:
        return [values]
    bounds = segments.searchsorted(np.arange(1, nslots)).tolist()
    return [values[lo:hi] for lo, hi in zip([0] + bounds, bounds + [values.size])]


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
        self._seg_ids: dict[int, np.ndarray] = {}
        # id(stack) -> the last level's leaf memo.  A plan has one leaf
        # kind, so one table serves whichever leaf it is; entries are
        # validated by array identity / prefix equality on every use
        # (a strong reference is held, so an id cannot be recycled
        # while its entry is trusted; steal splits copy arrays and
        # therefore invalidate naturally).
        self._memo: dict[int, list[Any]] = {}
        self._loops: dict[bool, np.ndarray | None] = {}

    # -- gathers and bases ---------------------------------------------------

    def _graph(self, inbound: bool) -> CSRGraph:
        """The graph whose rows are the out- (or in-) neighbor lists."""
        return self.graph.reversed_view() if inbound else self.graph

    def seg_ids(self, nslots: int) -> np.ndarray:
        got = self._seg_ids.get(nslots)
        if got is None:
            got = self._seg_ids[nslots] = np.arange(nslots, dtype=np.int64)
        return got

    def gather_slots(self, slot_arr: np.ndarray, inbound: bool, keyed: bool) -> Operand:
        """The slots' own neighbor lists: one batched gather."""
        g = self._graph(inbound)
        vals, offs = g.neighbors_batch(slot_arr)
        lens = offs[1:] - offs[:-1]
        segs = np.repeat(self.seg_ids(slot_arr.size), lens)
        if not keyed:
            return Operand(vals, offs, segs, None, 0, -1, inbound)
        keys = segs * self.n + vals.astype(np.int64)
        return Operand(vals, offs, segs, keys, int(lens.max()), -1, inbound)

    def gather_prefix(self, vertex: int, inbound: bool) -> Operand:
        """One already-matched vertex's list, shared by every slot."""
        vals = self._graph(inbound).neighbors(vertex)
        return Operand(vals, None, None, None, int(vals.size), vertex, inbound)

    def tile(self, arr: np.ndarray, nslots: int) -> Segmented:
        """``arr`` once per slot."""
        return np.tile(arr, nslots), np.repeat(self.seg_ids(nslots), arr.size)

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
        bounds = segs.searchsorted(np.arange(len(slots) + 1)).tolist()
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
        ``segment * n + value`` when the operand differs per slot.  The
        charge is always the binary-search cost model's, whatever
        computed ``found``."""
        if found is None:
            if opnd.keys is None:
                found = member_sorted(opnd.vals, vals)
            else:
                found = member_sorted(opnd.keys, segs * self.n + vals.astype(np.int64))
        if warp is not None:
            total = int(vals.size)
            _charge_set_op(warp, int(segs[-1]) + 1 if total else 0, total, opnd.width)
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
            self._charge_spill(warp, np.bincount(segs, minlength=nslots))
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

    def _charge_spill(self, warp: Warp, counts: np.ndarray) -> None:
        over = int(np.maximum(counts - self.cap, 0).sum())
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
        pin: int | None = None,
    ) -> Frame | np.ndarray:
        """Filter the level's raw candidates and build the frame (or,
        ``count_only``, the per-slot counts).

        Injectivity, the symmetry floor, the level label, the degree
        need and an anchored run's ``pin`` are independent elementwise
        predicates, so one fused mask replaces the reference path's
        sequential compactions (same surviving set, same one
        ``charge_filter`` over the unfiltered size).
        """
        cvals, csegs = cand
        nslots = int(slot_arr.size)
        total = int(cvals.size)
        if total:
            slot_of = slot_arr[csegs]
            keep = cvals == slot_of
            if m_prefix:
                keep |= member_sorted(np.sort(np.asarray(m_prefix, dtype=cvals.dtype)), cvals)
            np.logical_not(keep, out=keep)
            if uses_slot or floor_positions:
                floor = _floor(m_prefix, floor_positions)
                keep &= cvals > (np.maximum(slot_of, floor) if uses_slot else floor)
            if label is not None:
                keep &= self._labels_of(cvals) == label
            if need > 1:
                keep &= self._degrees_of(cvals) >= need
            if pin is not None:
                keep &= cvals == pin
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
            cand=_split_segments(cvals, csegs, nslots),
            sets={sid: _split_segments(v, s, nslots) for sid, (v, s) in sets.items()},
        )

    # -- count-only leaves -------------------------------------------------------
    #
    # Callers guarantee level >= 2 (a non-empty prefix) and an unpinned
    # last level.  The slot's own vertex is never in the prefix
    # (injectivity at level - 1 already dropped it).

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
                    rows = np.repeat(vs, offs[1:] - offs[:-1])
                    mask[rows[vals == rows]] = True
                object.__setattr__(g, "_selfloop_mask", mask)
            self._loops[inbound] = mask if mask.any() else None
        return self._loops[inbound]

    def leaf_gather_free(self, warp: Warp | None, stack: WarpStack, slot_arr: np.ndarray,
                         m_prefix: list[int], inbound: bool) -> np.ndarray:
        """Candidates are the slots' own neighbor lists, unfiltered
        apart from injectivity: the counts are row lengths minus the
        used vertices present in each row, and no value is gathered.
        Charges: copy(T), spill, filter(T) with the gathered path's T.
        """
        g = self._graph(inbound)
        counts: np.ndarray = np.asarray(g.degree())[slot_arr]
        if warp is not None:
            total = int(counts.sum())
            warp.charge_copy(total)
            if total > self.cap:
                self._charge_spill(warp, counts)
            if total:
                warp.charge_filter(total)
        loops = self.self_loops(inbound)
        if loops is not None:
            counts -= loops[slot_arr]
        # #(prefix ∩ N(v)) per vertex v, rebuilt when the prefix moves —
        # far rarer than a leaf batch: one scatter-add per prefix member
        # over the reverse adjacency (x = w ∈ N(v) ⟺ v ∈ N_reverse(w);
        # rows hold unique entries, so += 1 tallies exactly)
        ent = self._memo.get(id(stack))
        if ent is None or ent[0] != m_prefix:
            excl = np.zeros(self.n, dtype=np.int64)
            for w in m_prefix:
                excl[self._graph(not inbound).neighbors(w)] += 1
            ent = self._memo[id(stack)] = [list(m_prefix), excl]
        counts -= ent[1][slot_arr]
        return counts

    def leaf_flipped(self, warp: Warp | None, stack: WarpStack, slot_arr: np.ndarray,
                     m_prefix: list[int], ref: np.ndarray, inbound: bool) -> np.ndarray:
        """Candidates are ``ref ∩ N(slot)`` for a shared earlier set
        ``ref``: probe each slot's neighbors against ``ref`` (once per
        vertex while ``ref`` lives) instead of tiling ``ref`` per slot.
        Charges: set_op(|ref| · nslots), spill, filter(kept), as tiled.
        """
        nslots = int(slot_arr.size)
        g = self._graph(inbound)
        if warp is not None:
            total = int(ref.size) * nslots
            width = int(np.asarray(g.degree())[slot_arr].max())
            _charge_set_op(warp, nslots if total else 0, total, width)
        # [ref, |ref ∩ N(v)| per vertex (-1 = unknown), prefix, prefix members in ref]
        ent = self._memo.get(id(stack))
        if ent is None or ent[0] is not ref:
            ent = self._memo[id(stack)] = [ref, np.full(self.n, -1, dtype=np.int64), None, []]
        counts: np.ndarray = ent[1][slot_arr]
        miss = counts < 0
        if miss.any():
            mv = slot_arr[miss]
            nb_v, nb_o = g.neighbors_batch(mv)
            cs = np.zeros(nb_v.size + 1, dtype=np.int64)
            np.cumsum(member_sorted(ref, nb_v), out=cs[1:])
            counts[miss] = ent[1][mv] = cs[nb_o[1:]] - cs[nb_o[:-1]]
        if warp is not None:
            kept = int(counts.sum())
            if kept > self.cap:
                self._charge_spill(warp, counts)
            if kept:
                warp.charge_filter(kept)
        loops = self.self_loops(inbound)
        if loops is not None:
            counts -= member_sorted(ref, slot_arr) & loops[slot_arr]
        if ent[2] != m_prefix:
            hits = member_sorted(ref, np.asarray(m_prefix, dtype=ref.dtype))
            ent[2] = list(m_prefix)
            ent[3] = [w for w, hit in zip(m_prefix, hits.tolist()) if hit]
        for w in ent[3]:  # used vertices in ref: drop them where adjacent to the slot
            counts -= member_sorted(self._graph(not inbound).neighbors(w), slot_arr)
        return counts

    def leaf_tally(
        self,
        warp: Warp | None,
        stack: WarpStack,
        slot_arr: np.ndarray,
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

        Unlabeled with no degree need, the membership test is inverted
        (the few used vertices are searched in ``ca``), so no O(|ca|)
        array is built; otherwise one mask over ``ca`` and sorted cuts.
        """
        nslots = int(slot_arr.size)
        m = int(ca.size)
        if m == 0:
            return np.zeros(nslots, dtype=np.int64)
        if warp is not None:
            warp.charge_filter(m * nslots)
        floor = _floor(m_prefix, floor_positions)
        keep = None
        if label is not None or need > 1:
            keep = member_sorted(np.sort(np.asarray(m_prefix, dtype=ca.dtype)), ca)
            np.logical_not(keep, out=keep)
            if label is not None:
                keep &= self._labels_of(ca) == label
            if need > 1:
                keep &= self._degrees_of(ca) >= need
        if uses_slot:
            # the floor is at least the slot's own vertex, so x > floor
            # already excludes x == slot
            floors = np.maximum(slot_arr, floor)
            fpos = ca.searchsorted(floors, side="right")
            if keep is not None:
                below = np.zeros(m + 1, dtype=np.int64)
                np.cumsum(keep, out=below[1:])
                counts: np.ndarray = below[m] - below[fpos]
                return counts
            used = np.asarray(m_prefix, dtype=ca.dtype)
            hit = used[member_sorted(ca, used)]
            counts = (m - fpos).astype(np.int64)
            counts -= (hit[None, :] > floors[:, None]).sum(axis=1)
            return counts
        # one floor for every slot: a scalar base count (memoized per
        # (ca, prefix), which outlive many batches, when it depends on
        # nothing else), minus the slot's own vertex where it survives
        if keep is not None:
            base = int(np.count_nonzero(keep[int(ca.searchsorted(floor, side="right")):]))
        else:
            ent = self._memo.get(id(stack))
            if ent is None or ent[0] is not ca or ent[1] != m_prefix:
                used = np.asarray(m_prefix, dtype=ca.dtype)
                hit = used[member_sorted(ca, used)]
                base = (m - int(ca.searchsorted(floor, side="right"))
                        - int(np.count_nonzero(hit > floor)))
                ent = self._memo[id(stack)] = [ca, list(m_prefix), base]
            base = ent[2]
        spos = ca.searchsorted(slot_arr)
        np.minimum(spos, m - 1, out=spos)
        own = ca[spos] == slot_arr
        if floor >= 0:
            own &= slot_arr > floor
        if keep is not None:
            own &= keep[spos]
        counts = base - own.astype(np.int64)
        return counts
