"""Candidate-set computation — ``getCandidates`` (Figs. 3, 4, 7, 8).

The :class:`CandidateComputer` evaluates a plan's set program for one
warp on frame entry: for each set scheduled at the entered level it
resolves the base (neighbor list, earlier set, or vertex universe),
performs the (warp-combined, Fig. 8) intersections/differences for all
unrolled slots at once, applies merged label filters, and finally
builds the *filtered* per-slot candidate arrays (injectivity +
symmetry-breaking floor) the kernel loop iterates.

One lowered program, one walk (docs/ARCHITECTURE.md §3.1):
``compute_frame`` walks the plan's
:class:`~repro.core.lowering.LevelProgram` and calls the
:mod:`~repro.core.levelops` functions, which evaluate the whole
unrolled batch on segmented ``(values, segments)`` arrays and own
every charge.  The codegen tier (``repro.codegen``) prints the same
walk unrolled and calls the same functions.  The per-slot Fig. 7
transliteration lives in the test suite (``tests/oracle.py``) as the
independent reference the walk's matches *and* simulated cycle charges
are checked against.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph
from repro.virtgpu.warp import Warp

from .config import EngineConfig
from .levelops import LevelOps, Window
from .lowering import Leaf, LevelProgram, Src, lower
from .stack import Frame, WarpStack

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pattern.plan import MatchingPlan

__all__ = ["CandidateComputer"]


class CandidateComputer:
    """Evaluates ``getCandidates`` for one (graph, plan, config) triple.

    Instances are shared by all warps of an engine run; they hold only
    immutable precomputed state (label lookup tables, the root
    candidate list), so sharing is safe.
    """

    def __init__(self, graph: CSRGraph, plan: MatchingPlan, config: EngineConfig) -> None:
        self.graph = graph
        self.plan = plan
        self.config = config
        self.program = plan.program
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
        # the run-time half of the lowered program: label LUTs by set id
        # (a LevelProgram names a filter by the set carrying it)
        self.ops = LevelOps(
            graph, self.slot_capacity,
            {sid: self._label_luts[r.label_filter]
             for sid, r in enumerate(self.program.recipes)
             if r.label_filter in self._label_luts},
        )

    @cached_property
    def levels(self) -> tuple[LevelProgram, ...]:
        """The plan lowered; ``levels[l - 1]`` is level ``l`` (lowered
        on first use: compiled kernels never walk it)."""
        return lower(self.plan)

    # -- roots -------------------------------------------------------------

    def _build_root_candidates(self) -> np.ndarray:
        root_recipe = self.program.recipes[self.program.candidate_of_level[0]]
        verts = np.arange(self.graph.num_vertices, dtype=np.int32)
        return self._apply_label_filter(verts, root_recipe.label_filter)

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

    # -- frame entry -----------------------------------------------------

    def compute_frame(
        self,
        warp: Warp,
        stack: WarpStack,
        level: int,
        slot_vertices: np.ndarray,
        count_only: Window | None = None,
    ) -> Frame | np.ndarray:
        """Build the frame entered at ``level`` for a batch of slots.

        ``slot_vertices`` are the candidates of position ``level - 1``
        being matched (one per unrolled slot); ``stack`` holds frames
        ``0 .. level-1`` (the new frame is not pushed yet).

        With ``count_only`` (the last-level counting case, Fig. 3
        line 16) the per-slot *filtered candidate counts* are returned
        as a read-only ``int64`` array instead of a :class:`Frame`, and
        the last-level candidate arrays are never materialized.  Cycle
        charges are identical either way.  ``count_only`` is the
        :data:`~repro.core.levelops.Window` ``(cand, lo, hi)`` the batch
        was cut from (``slot_vertices == cand[lo:hi]``; the kernel's
        ``cand`` is the top frame's active slot), so a leaf does its
        host work once per parent frame rather than once per batch: a
        window the plan of that frame already covers is replayed
        (``LevelOps.replay``) before anything else — no walk, no prefix
        rebuild — and only a window it does not cover enters the walk,
        whose leaf plans it.  A falsy value builds the frame.
        """
        slot_arr = np.asarray(slot_vertices, dtype=np.int32)
        if slot_arr.size == 0:
            raise ValueError("a frame needs at least one slot")
        if not count_only:
            return self._walk(warp, stack, level, slot_arr, None)
        counts = self.ops.replay(warp, stack, count_only)
        if counts is not None:
            return counts
        return self._walk(warp, stack, level, slot_arr, count_only)

    # -- the lowered walk ---------------------------------------------------

    def _walk(
        self,
        warp: Warp,
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
        leaf = lp.leaf if win is not None else Leaf.NONE
        if leaf is Leaf.GATHER_FREE:
            return ops.leaf_gather_free(warp, stack, win, m_prefix, lp.gathers[0].inbound,
                                        lp.frame_wide)
        if leaf is Leaf.FLIPPED:
            t = lp.tiles[0]
            return ops.leaf_flipped(warp, stack, win, m_prefix,
                                    frames[t.level].set_instance(t.sid), lp.gathers[0].inbound,
                                    lp.frame_wide)
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
                vals, segs = ops.set_op(warp, vals, segs, opnds[op.gather], op.difference)
            sets[st.sid] = ops.seal(warp, vals, segs, st.sid if st.labels is not None else None,
                                    nslots, not st.ops)
        if lp.cand_level == level:
            cand = sets[lp.cand_sid]
        else:
            ca = frames[lp.cand_level].set_instance(lp.cand_sid)
            if leaf is Leaf.TALLY:
                return ops.leaf_tally(warp, stack, win, m_prefix, ca, lp.floor_positions,
                                      lp.uses_slot, lp.label, lp.frame_wide)
            cand = ops.tile(ca, nslots)
        return ops.finish(warp, level, slot_arr, m_prefix, cand, lp.floor_positions,
                          lp.uses_slot, lp.label, win is not None, sets)
