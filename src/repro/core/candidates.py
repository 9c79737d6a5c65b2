"""Candidate-set computation — ``getCandidates`` (Figs. 3, 4, 7, 8).

The :class:`CandidateComputer` evaluates a plan's set program for one
warp on frame entry: for each set scheduled at the entered level it
resolves the base (neighbor list, earlier set, or vertex universe),
performs the (warp-combined, Fig. 8) intersections/differences for all
unrolled slots at once, applies merged label filters, and finally
builds the *filtered* per-slot candidate arrays (injectivity +
symmetry-breaking floor) the kernel loop iterates.

One contract, one oracle and one lowered program (docs/ARCHITECTURE.md
§3.1):

* the **reference path** (``fastpath=False``) evaluates every slot with
  its own Python loop — the legible Fig. 7 transliteration and the
  differential-testing oracle;
* the **fast path** (``fastpath=True``, default) walks the plan's
  :class:`~repro.core.lowering.LevelProgram` and calls the
  :mod:`~repro.core.levelops` functions, which evaluate the whole
  unrolled batch on segmented ``(values, segments)`` arrays and own
  every charge.  The codegen tier (``repro.codegen``) prints the same
  walk unrolled and calls the same functions.

All of them produce byte-identical matches *and* byte-identical
simulated cycle charges; only host wall-clock differs.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from repro.codemotion.depgraph import BaseKind, OpKind
from repro.graph.csr import CSRGraph
from repro.pattern.plan import MatchingPlan
from repro.virtgpu.setops import combined_set_op
from repro.virtgpu.warp import Warp

from .config import EngineConfig
from .levelops import LevelOps, Window
from .lowering import Leaf, LevelProgram, Src, lower
from .stack import Frame, WarpStack

__all__ = ["CandidateComputer"]


class CandidateComputer:
    """Evaluates ``getCandidates`` for one (graph, plan, config) triple.

    Instances are shared by all warps of an engine run; they hold only
    immutable precomputed state (label lookup tables, the root
    candidate list), so sharing is safe.
    """

    def __init__(
        self,
        graph: CSRGraph,
        plan: MatchingPlan,
        config: EngineConfig,
        pins: dict[int, int] | None = None,
    ) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        self.program = plan.program
        # anchored execution (repro.dynamic): pins[level] = data vertex
        # that position `level` must match.  A pinned level's candidate
        # set is filtered down to {pin} after all regular predicates, so
        # counts restricted this way stay a subset of the unpinned run.
        self.pins = dict(pins) if pins else None
        # effective slot capacity: the paper sizes C's slots by
        # MAX_DEGREE and spills rarer, longer sets to host memory
        self.slot_capacity = min(config.max_degree, max(graph.max_degree(), 1))
        # label lookup tables: one boolean LUT per distinct filter
        self._label_luts: dict[frozenset[int], np.ndarray] = {}
        if graph.is_labeled:
            num_labels = graph.num_labels
            for r in self.program.recipes:
                if r.label_filter is not None and r.label_filter not in self._label_luts:
                    lut = np.zeros(max(num_labels, max(r.label_filter) + 1), dtype=bool)
                    for lab in r.label_filter:
                        lut[lab] = True
                    self._label_luts[r.label_filter] = lut
        self.root_candidates = self._build_root_candidates()
        # per-level singleton label (labeled plans): a candidate set that
        # also feeds deeper sets carries a *merged* multi-label filter
        # (Fig. 10b), so iteration must re-filter to the level's own label
        if plan.query.labels is not None:
            self._level_label: list[int | None] = [int(x) for x in plan.query.labels]
        else:
            self._level_label = [None] * plan.size
        # degree-filter extension: candidate degree must reach the query
        # vertex's degree (in+out for directed queries)
        if config.degree_filter:
            q = plan.query
            self._degree_need = [
                int(q.adj[l].sum() + (q.adj[:, l].sum() if q.directed else 0))
                for l in range(plan.size)
            ]
            self._graph_degree = graph.degree()
            if graph.directed:
                self._graph_degree = (
                    self._graph_degree + graph.reversed_view().degree()
                )
        else:
            self._degree_need = None
            self._graph_degree = None
        self.fastpath = bool(config.fastpath)
        if self.fastpath:
            # the run-time half of the lowered program: label LUTs by
            # set id (a LevelProgram names a filter by the set carrying
            # it), the degree table, and the optional adjacency-bitmap
            # index for high-degree operand vertices
            thr = config.bitmap_threshold
            bitmap = graph.adjacency_bitmap(thr) if thr is not None else None
            bitmap_in = bitmap
            if bitmap is not None and graph.directed:
                bitmap_in = graph.reversed_view().adjacency_bitmap(thr)
            self.ops = LevelOps(
                graph, self.slot_capacity,
                {sid: self._label_luts[r.label_filter]
                 for sid, r in enumerate(self.program.recipes)
                 if r.label_filter in self._label_luts},
                self._graph_degree, bitmap, bitmap_in,
            )

    @cached_property
    def levels(self) -> tuple[LevelProgram, ...]:
        """The plan lowered for this config; ``levels[l - 1]`` is level
        ``l`` (lowered on first use: compiled kernels never walk it)."""
        return lower(self.plan, bool(self.config.degree_filter),
                     self.config.bitmap_threshold is not None)

    @property
    def supports_count_only(self) -> bool:
        """Whether the kernel may take the count-only last-level leaf.

        Only the segmented backends skip materializing last-level
        candidates; the reference path must build real frames so the
        differential tests can compare them.  The kernel consults this
        instead of ``config.fastpath`` so swapped-in computers (the
        codegen tier) decide for themselves.
        """
        return self.fastpath

    # -- roots -------------------------------------------------------------

    def _build_root_candidates(self) -> np.ndarray:
        root_recipe = self.program.recipes[self.program.candidate_of_level[0]]
        verts = np.arange(self.graph.num_vertices, dtype=np.int32)
        verts = self._apply_label_filter(verts, root_recipe.label_filter)
        if self.config.degree_filter and verts.size:
            q = self.plan.query
            need = int(q.adj[0].sum() + (q.adj[:, 0].sum() if q.directed else 0))
            if need > 1:
                deg = self.graph.degree()
                if self.graph.directed:
                    deg = deg + self.graph.reversed_view().degree()
                verts = verts[deg[verts] >= need]
        if self.pins is not None:
            pin = self.pins.get(0)
            if pin is not None:
                verts = verts[verts == pin]
        return verts

    def root_frame(self, chunk: np.ndarray) -> Frame:
        """Level-0 frame over one chunk of the global vertex range."""
        sid0 = self.program.candidate_of_level[0]
        return Frame(
            level=0,
            slot_vertices=np.empty(0, dtype=np.int32),
            cand=[chunk],
            sets={sid0: [chunk]},
        )

    # -- helpers -------------------------------------------------------------

    def _apply_label_filter(self, arr: np.ndarray, flt: frozenset[int] | None) -> np.ndarray:
        if flt is None or arr.size == 0:
            return arr
        if self.graph.labels is None:
            raise ValueError("labeled plan on unlabeled data graph")
        lut = self._label_luts[flt]
        return arr[lut[self.graph.labels[arr]]]

    def _charge_spill(self, warp: Warp | None, arrays: list[np.ndarray]) -> None:
        """Host-memory penalty for sets longer than the slot capacity."""
        if warp is None:
            return
        cap = self.slot_capacity
        over = sum(max(0, a.size - cap) for a in arrays)
        if over:
            warp.charge(warp.cost.host_access * warp.cost.rounds(over))

    def _resolve_operand(
        self,
        position: int,
        level: int,
        m_prefix: list[int],
        slot_vertex: int,
        inbound: bool = False,
    ) -> np.ndarray:
        """Out- (or in-) neighbor list of the vertex matched at
        ``position``."""
        v = slot_vertex if position == level - 1 else m_prefix[position]
        if inbound:
            return self.graph.in_neighbors(v)
        return self.graph.neighbors(v)

    # -- frame entry -----------------------------------------------------

    def compute_frame(
        self,
        warp: Warp | None,
        stack: WarpStack,
        level: int,
        slot_vertices: np.ndarray,
        count_only: bool | Window = False,
    ) -> Frame | np.ndarray:
        """Build the frame entered at ``level`` for a batch of slots.

        ``slot_vertices`` are the candidates of position ``level - 1``
        being matched (one per unrolled slot); ``stack`` holds frames
        ``0 .. level-1`` (the new frame is not pushed yet).

        With ``count_only`` (the last-level counting case, Fig. 3
        line 16) the per-slot *filtered candidate counts* are returned
        as a read-only ``int64`` array instead of a :class:`Frame`; the
        fast path then skips materializing the last-level candidate
        arrays entirely.  Cycle charges are identical either way.  The
        kernel passes the :data:`~repro.core.levelops.Window`
        ``(cand, lo, hi)`` the batch was cut from
        (``slot_vertices == cand[lo:hi]``) instead of ``True``, so a
        leaf can do its host work once per parent slot rather than once
        per batch.
        """
        slot_arr = np.asarray(slot_vertices, dtype=np.int32)
        if slot_arr.size == 0:
            raise ValueError("a frame needs at least one slot")
        if self.fastpath:
            if not count_only:
                win = None
            elif isinstance(count_only, tuple):
                win = count_only
            else:  # the batch is its own parent slot
                win = (slot_arr, 0, int(slot_arr.size))
            return self._walk(warp, stack, level, slot_arr, win)
        frame = self._compute_frame_ref(warp, stack, level, slot_vertices)
        if count_only:
            return np.asarray([c.size for c in frame.cand], dtype=np.int64)
        return frame

    def _compute_frame_ref(
        self,
        warp: Warp | None,
        stack: WarpStack,
        level: int,
        slot_vertices: np.ndarray,
    ) -> Frame:
        """Per-slot reference backend (the literal Fig. 7 loop)."""
        nslots = int(slot_vertices.size)
        m_prefix = stack.match_up_to(level - 1)  # positions 0..level-2
        frame_sets: dict[int, list[np.ndarray]] = {}

        def set_data(sid: int, slot: int) -> np.ndarray:
            """Resolve set ``sid`` for ``slot`` of the frame being built."""
            r = self.program.recipes[sid]
            if r.level == level:
                return frame_sets[sid][slot]
            return stack.frames[r.level].set_instance(sid)

        for sid in self.program.sets_at_level[level]:
            r = self.program.recipes[sid]
            # bases per slot
            if r.base is BaseKind.NEIGHBORS:
                bases = [
                    self._resolve_operand(r.base_arg, level, m_prefix,
                                          int(slot_vertices[u]), r.base_inbound)
                    for u in range(nslots)
                ]
            elif r.base is BaseKind.REF:
                bases = [set_data(r.base_arg, u) for u in range(nslots)]
            else:  # ALL only appears at level 0, handled by root_frame
                raise AssertionError("ALL base outside the root frame")
            current = bases
            if not r.ops:
                # explicit neighbor-list copy into C (e.g. C1 = N(v0))
                current = [self._apply_label_filter(b.copy(), r.label_filter) for b in bases]
                if warp is not None:
                    warp.charge_copy(sum(c.size for c in bases))
            else:
                for op in r.ops:
                    operands = [
                        self._resolve_operand(op.position, level, m_prefix,
                                              int(slot_vertices[u]), op.inbound)
                        for u in range(nslots)
                    ]
                    diff = [op.kind is OpKind.DIFFERENCE] * nslots
                    current = combined_set_op(warp, current, operands, diff)
                current = [self._apply_label_filter(c, r.label_filter) for c in current]
            self._charge_spill(warp, current)
            frame_sets[sid] = current

        # filtered candidate arrays for position `level`
        sid_c = self.program.candidate_of_level[level]
        r_c = self.program.recipes[sid_c]
        cand: list[np.ndarray] = []
        total_filtered = 0
        for u in range(nslots):
            if r_c.level == level:
                raw = frame_sets[sid_c][u]
            else:
                raw = stack.frames[r_c.level].set_instance(sid_c)
            cand.append(self._filter_candidates(raw, level, m_prefix, int(slot_vertices[u])))
            total_filtered += raw.size
        if warp is not None and total_filtered:
            warp.charge_filter(total_filtered)
        return Frame(
            level=level,
            slot_vertices=np.asarray(slot_vertices, dtype=np.int32),
            cand=cand,
            sets=frame_sets,
        )

    # -- vectorized fast path ----------------------------------------------

    def _walk(
        self,
        warp: Warp | None,
        stack: WarpStack,
        level: int,
        slot_arr: np.ndarray,
        win: Window | None,
    ) -> Frame | np.ndarray:
        """Walk the level's lowered program: lowering fixed the order,
        the ops own the NumPy work and every charge.  ``repro.codegen``
        prints this same walk unrolled, constants frozen.  ``win`` is
        the count-only window of ``slot_arr`` (``None``: build the
        frame)."""
        lp = self.levels[level - 1]
        ops = self.ops
        frames = stack.frames
        nslots = int(slot_arr.size)
        m_prefix = stack.match_up_to(level - 1)
        pin = self.pins.get(level) if self.pins is not None else None
        # a count-only leaf stands down when the level is pinned
        leaf = lp.leaf if win is not None and pin is None else Leaf.NONE
        if leaf is Leaf.GATHER_FREE:
            return ops.leaf_gather_free(warp, stack, win, m_prefix, lp.gathers[0].inbound)
        if leaf is Leaf.FLIPPED:
            t = lp.tiles[0]
            return ops.leaf_flipped(warp, stack, win, m_prefix,
                                    frames[t.level].set_instance(t.sid), lp.gathers[0].inbound)
        opnds = [
            ops.gather_slots(slot_arr, g.inbound, g.keyed) if g.per_slot
            else ops.gather_prefix(m_prefix[g.position], g.inbound)
            for g in lp.gathers
        ]
        tiles = [
            ops.tile(opnds[t.gather].vals if t.gather >= 0
                     else frames[t.level].set_instance(t.sid), nslots)
            for t in lp.tiles
        ]
        sets: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for st in lp.steps:
            if st.src is Src.GATHER:
                vals, segs = opnds[st.arg].vals, opnds[st.arg].segs
            elif st.src is Src.TILE:
                vals, segs = tiles[st.arg]
            else:
                vals, segs = sets[st.arg]
            for op in st.ops:
                opnd = opnds[op.gather]
                found = ops.bitmap_found(vals, segs, opnd, slot_arr) if op.bitmap else None
                vals, segs = ops.set_op(warp, vals, segs, opnd, op.difference, found)
            sets[st.sid] = ops.seal(warp, vals, segs, st.sid if st.labels is not None else None,
                                    nslots, not st.ops)
        if lp.cand_level == level:
            cand = sets[lp.cand_sid]
        else:
            ca = frames[lp.cand_level].set_instance(lp.cand_sid)
            if leaf is Leaf.TALLY:
                return ops.leaf_tally(warp, stack, win, m_prefix, ca, lp.floor_positions,
                                      lp.uses_slot, lp.label, lp.degree_need)
            cand = ops.tile(ca, nslots)
        return ops.finish(warp, level, slot_arr, m_prefix, cand, lp.floor_positions,
                          lp.uses_slot, lp.label, lp.degree_need, win is not None, sets, pin)

    def _filter_candidates(
        self, raw: np.ndarray, level: int, m_prefix: list[int], slot_vertex: int
    ) -> np.ndarray:
        """Apply the level's label, injectivity, and the symmetry floor."""
        arr = raw
        lab = self._level_label[level]
        if lab is not None and arr.size:
            arr = arr[self.graph.labels[arr] == lab]
        if self._degree_need is not None and arr.size:
            need = self._degree_need[level]
            if need > 1:
                arr = arr[self._graph_degree[arr] >= need]
        # symmetry-breaking: candidate id must exceed every restricted
        # earlier match; candidate arrays are sorted, so slice
        floor = -1
        for i in self.plan.restrictions[level]:
            v = slot_vertex if i == level - 1 else m_prefix[i]
            if v > floor:
                floor = v
        if floor >= 0 and arr.size:
            arr = arr[np.searchsorted(arr, floor, side="right"):]
        # injectivity: drop already-matched vertices
        if arr.size:
            used = m_prefix + [slot_vertex] if level >= 1 else m_prefix
            if used:
                mask = np.isin(arr, np.asarray(used, dtype=arr.dtype),
                               assume_unique=False, invert=True)
                if not mask.all():
                    arr = arr[mask]
        if self.pins is not None and arr.size:
            pin = self.pins.get(level)
            if pin is not None:
                arr = arr[arr == pin]
        return arr
