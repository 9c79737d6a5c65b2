"""One lowered level program for both fast candidate tiers.

:func:`lower` turns a plan's :class:`~repro.codemotion.depgraph.
SetProgram` into one :class:`LevelProgram` per stack level, making
every decision the vectorized ``getCandidates`` needs exactly once:
which neighbor lists to gather (and whether per slot or for one prefix
vertex), which arrays to repeat per slot as set bases, the ordered
set-op steps, where the level's candidates come from, the fused-filter
constants, and which count-only leaf applies.  The interpreted tier
walks the program (``CandidateComputer.compute_frame``), the codegen
tier prints the same walk unrolled (``repro.codegen.emit``); both call
the run-time functions of :mod:`repro.core.levelops`, so the op order
is stated here and the charge order there, once each.

Lowering is pure and deterministic: no graph, no NumPy arrays, tuples
in plan order only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.codemotion.depgraph import BaseKind, OpKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pattern.plan import MatchingPlan

__all__ = ["Gather", "Leaf", "LevelProgram", "OpStep", "SetStep", "Src", "Tile", "lower"]


class Src(enum.Enum):
    """Where a set step's base ``(values, segments)`` pair comes from."""

    GATHER = "gather"  # a per-slot gather: the slots' own neighbor lists
    TILE = "tile"      # a shared array repeated once per slot
    LOCAL = "local"    # another set computed at this level


class Leaf(enum.Enum):
    """Count-only form of the last level (``levelops.leaf_*``)."""

    NONE = "none"
    GATHER_FREE = "gather_free"  # candidates are the slots' neighbor lists
    FLIPPED = "flipped"          # shared earlier set ∩ the slots' neighbor lists
    TALLY = "tally"              # candidates are one shared earlier set


@dataclass(frozen=True)
class Gather:
    """One neighbor list read: ``N(m[position])`` (in-neighbors when
    ``inbound``).  ``per_slot`` reads are one batched gather over the
    slot vertices (``position == level - 1``), the rest one prefix
    vertex's list shared by all slots.  ``keyed`` per-slot gathers are
    set-op operands and carry ``segment * n + value`` search keys."""

    position: int
    inbound: bool
    per_slot: bool
    keyed: bool


@dataclass(frozen=True)
class Tile:
    """A shared array repeated per slot as a set base: gather
    ``gather``'s list, or (``gather == -1``) set ``sid`` of the live
    frame at ``level``."""

    gather: int
    sid: int
    level: int


@dataclass(frozen=True)
class OpStep:
    """Intersect with (or subtract) gather ``gather``."""

    gather: int
    difference: bool


@dataclass(frozen=True)
class SetStep:
    """Compute set ``sid``: base ``(src, arg)``, then ``ops`` in order,
    then the merged label filter (``labels``, sorted; ``None`` = none).
    No ops means an explicit copy of the base into ``C``."""

    sid: int
    src: Src
    arg: int
    ops: tuple[OpStep, ...]
    labels: tuple[int, ...] | None


@dataclass(frozen=True)
class LevelProgram:
    """Everything ``getCandidates`` does on entering ``level``."""

    level: int
    gathers: tuple[Gather, ...]
    tiles: tuple[Tile, ...]
    steps: tuple[SetStep, ...]
    cand_sid: int
    cand_level: int  # == level: own set; < level: shared set of that frame
    floor_positions: tuple[int, ...]  # restricted prefix positions (< level - 1)
    uses_slot: bool  # position level - 1 is restricted too
    label: int | None
    leaf: Leaf
    #: the leaf's inputs other than the slot's own vertex are the same
    #: for every slot of the parent frame (level - 1), so one plan
    #: covers the frame's remaining slots
    frame_wide: bool


def lower(plan: MatchingPlan) -> tuple[LevelProgram, ...]:
    """Level programs for stack levels ``1 .. plan.size - 1`` (level 0
    is the root frame and computes nothing)."""
    return tuple(_lower_level(plan, level) for level in range(1, plan.size))


def _lower_level(plan: MatchingPlan, level: int) -> LevelProgram:
    recipes = plan.program.recipes
    gathers: list[Gather] = []
    tiles: list[Tile] = []

    def gather(position: int, inbound: bool, as_op: bool) -> int:
        per_slot = position == level - 1
        for i, g in enumerate(gathers):
            if (g.position, g.inbound) == (position, inbound):
                if as_op and per_slot and not g.keyed:
                    gathers[i] = Gather(position, inbound, per_slot, True)
                return i
        gathers.append(Gather(position, inbound, per_slot, as_op and per_slot))
        return len(gathers) - 1

    def tile(t: Tile) -> int:
        if t not in tiles:
            tiles.append(t)
        return tiles.index(t)

    steps: list[SetStep] = []
    for sid in plan.program.sets_at_level[level]:
        r = recipes[sid]
        if r.base is BaseKind.NEIGHBORS:
            g = gather(r.base_arg, r.base_inbound, as_op=False)
            src, arg = (Src.GATHER, g) if gathers[g].per_slot else (Src.TILE, tile(Tile(g, -1, -1)))
        elif r.base is BaseKind.REF:
            dep_level = recipes[r.base_arg].level
            if dep_level == level:
                src, arg = Src.LOCAL, r.base_arg
            else:
                src, arg = Src.TILE, tile(Tile(-1, r.base_arg, dep_level))
        else:  # ALL appears only at level 0, served by root_frame
            raise AssertionError("ALL base outside the root frame")
        ops = tuple(
            OpStep(gather(op.position, op.inbound, as_op=True), op.kind is OpKind.DIFFERENCE)
            for op in r.ops
        )
        labels = None if r.label_filter is None else tuple(sorted(r.label_filter))
        steps.append(SetStep(sid, src, arg, ops, labels))

    q = plan.query
    cand_sid = plan.program.candidate_of_level[level]
    cand_level = recipes[cand_sid].level
    restrictions = tuple(plan.restrictions[level])
    label = int(q.labels[level]) if q.labels is not None else None

    # count-only leaves: the last level is only ever counted, so three
    # shapes never need their candidate values (levelops.leaf_*)
    leaf = Leaf.NONE
    if level == plan.size - 1 and level >= 2:
        if cand_level != level:
            leaf = Leaf.TALLY
        elif (len(steps) == 1 and steps[0].labels is None and label is None
              and not restrictions):
            # unfiltered apart from injectivity, which the leaves
            # settle per slot without the values
            st = steps[0]
            if st.src is Src.GATHER and not st.ops:
                leaf = Leaf.GATHER_FREE
            elif (st.src is Src.TILE and tiles[st.arg].gather < 0 and len(st.ops) == 1
                  and not st.ops[0].difference and gathers[st.ops[0].gather].per_slot):
                leaf = Leaf.FLIPPED

    # one leaf plan serves the parent frame's slots when its shared set
    # lives below that frame and no floor reads the frame's slot vertex
    floor_positions = tuple(i for i in restrictions if i != level - 1)
    frame_wide = (leaf is Leaf.GATHER_FREE
                  or (leaf is Leaf.FLIPPED and tiles[0].level < level - 1)
                  or (leaf is Leaf.TALLY and cand_level < level - 1
                      and level - 2 not in floor_positions))

    return LevelProgram(
        level=level,
        gathers=tuple(gathers),
        tiles=tuple(tiles),
        steps=tuple(steps),
        cand_sid=cand_sid,
        cand_level=cand_level,
        floor_positions=floor_positions,
        uses_slot=(level - 1) in restrictions,
        label=label,
        leaf=leaf,
        frame_wide=frame_wide,
    )
