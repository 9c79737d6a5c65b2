"""Per-warp call stacks (Sec. IV, Fig. 3 / Fig. 7).

A warp's stack is a list of :class:`Frame` objects, one per recursion
level it currently occupies.  Frame ``l`` holds, for up to ``UNROLL``
sibling iterations of level ``l-1`` (the "slots" added by the unrolled
loop of Fig. 7):

* ``slot_vertices`` — the data vertices matched at position ``l-1``,
* ``sets`` — the raw candidate/intermediate sets computed on entering
  this level (``sets_at_level[l]`` of the plan's set program), one
  instance per slot (the paper's ``C[set][uiter][...]`` layout),
* ``cand`` — the *filtered* candidate arrays for position ``l``
  (injectivity + symmetry-breaking floor applied), one per slot,
* ``uiter`` / ``iter`` — the unrolled-iteration index and the iterate
  within the active slot's candidate list.

The root frame (level 0) has a single pseudo-slot whose candidates come
from the global vertex chunk iterator (Fig. 4).

:func:`divide_and_copy` implements the steal split of Fig. 5 (including
the unrolled-loop adjustment at the end of Sec. VI): at every level up
to ``StopLevel`` the *active slot's* remaining candidates are halved
between target and stealer; slots the target has not reached stay with
the target (the stealer's copies of those slots are emptied).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Frame", "WarpStack", "StolenWork", "divide_and_copy", "reabsorb"]

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class Frame:
    """One recursion level of a warp's stack."""

    level: int
    slot_vertices: np.ndarray            # vertex matched at level-1, per slot
    cand: list[np.ndarray]               # filtered candidates per slot
    sets: dict[int, list[np.ndarray]] = field(default_factory=dict)
    uiter: int = 0
    iter: int = 0

    @property
    def nslots(self) -> int:
        return len(self.cand)

    @property
    def active_vertex(self) -> int:
        """Data vertex matched at position ``level - 1`` (root: -1)."""
        if self.slot_vertices.size == 0:
            return -1
        return int(self.slot_vertices[self.uiter])

    def active_cand(self) -> np.ndarray:
        return self.cand[self.uiter]

    def remaining_active(self) -> int:
        """Unconsumed candidates in the active slot."""
        rem = self.cand[self.uiter].size - self.iter
        return rem if rem > 0 else 0

    def remaining_total(self) -> int:
        """Unconsumed candidates across the active and later slots."""
        rem = self.remaining_active()
        for u in range(self.uiter + 1, self.nslots):
            rem += self.cand[u].size
        return rem

    def set_instance(self, sid: int, slot: int | None = None) -> np.ndarray:
        """Raw array of set ``sid`` for ``slot`` (default: active slot)."""
        u = self.uiter if slot is None else slot
        return self.sets[sid][u]

    def payload_elems(self) -> int:
        """Total stored elements (for steal-copy cost accounting)."""
        n = sum(c.size for c in self.cand)
        for arrs in self.sets.values():
            n += sum(a.size for a in arrs)
        return n

    def clone(self) -> "Frame":
        """Deep copy — the checkpoint serialization unit.

        Copies every candidate and set array so a snapshot stays valid
        while the live kernel keeps mutating the originals."""
        return Frame(
            level=self.level,
            slot_vertices=self.slot_vertices.copy(),
            cand=[c.copy() for c in self.cand],
            sets={sid: [a.copy() for a in arrs] for sid, arrs in self.sets.items()},
            uiter=self.uiter,
            iter=self.iter,
        )


@dataclass
class WarpStack:
    """The frames a warp currently occupies, bottom (root) first."""

    frames: list[Frame] = field(default_factory=list)

    @property
    def depth(self) -> int:
        return len(self.frames)

    @property
    def top(self) -> Frame:
        return self.frames[-1]

    def push(self, frame: Frame) -> None:
        if frame.level != self.depth:
            raise ValueError(f"pushing level {frame.level} onto depth {self.depth}")
        self.frames.append(frame)

    def pop(self) -> Frame:
        return self.frames.pop()

    def clear(self) -> None:
        self.frames.clear()

    def partial_match(self) -> list[int]:
        """Data vertices matched so far: position ``l-1`` comes from the
        active slot of frame ``l``.  Length = depth - 1 (the root frame
        matches nothing)."""
        return [f.active_vertex for f in self.frames[1:]]

    def match_up_to(self, level: int) -> list[int]:
        """Vertices matched at positions ``0..level-1``."""
        return [self.frames[j].active_vertex for j in range(1, level + 1)]

    def remaining_below(self, stop_level: int) -> int:
        """Stealable work: remaining candidates at levels ≤ stop_level.

        Levels are weighted by how shallow they are (a remaining root
        candidate is a whole subtree), which is the "most remaining
        work" target-selection score of Sec. V-A.
        """
        score = 0
        for f in self.frames:
            if f.level > stop_level:
                break
            weight = 4 ** (stop_level - f.level)
            score += f.remaining_active() * weight
        return score

    def has_stealable(self, stop_level: int) -> bool:
        for f in self.frames:  # frames are level-ordered, so break early
            if f.level > stop_level:
                break
            if f.cand[f.uiter].size - f.iter >= 2:
                return True
        return False


@dataclass
class StolenWork:
    """The package a stealer receives: a partial stack up to StopLevel."""

    frames: list[Frame]
    copied_elems: int

    @property
    def empty(self) -> bool:
        return not self.frames


def divide_and_copy(stack: WarpStack, stop_level: int) -> StolenWork:
    """Split ``stack`` for a stealer (Fig. 5 + unrolled adjustment).

    Mutates the target's ``stack`` in place (it keeps the first half of
    the remaining candidates at each divisible level) and returns the
    stealer's frames.  Returns empty work when nothing is divisible.
    """
    stolen: list[Frame] = []
    copied = 0
    any_split = False
    for f in stack.frames:
        if f.level > stop_level:
            break
        cand = f.active_cand()
        rem = cand.size - f.iter
        give = rem // 2 if rem >= 2 else 0
        keep = rem - give
        split_at = f.iter + keep
        stolen_cand: list[np.ndarray] = []
        stolen_sets: dict[int, list[np.ndarray]] = {}
        # stealer gets the tail of the ACTIVE slot; its copies of the
        # other slots are emptied ("set Csize to zero", Sec. VI)
        for u in range(f.nslots):
            if u == f.uiter and give > 0:
                stolen_cand.append(cand[split_at:].copy())
            else:
                stolen_cand.append(_EMPTY)
        for sid, arrs in f.sets.items():
            # intermediate sets used by deeper levels must travel with
            # the stealer (Sec. VII last paragraph); only the active
            # slot's instance is live on the stolen path
            stolen_sets[sid] = [
                arrs[u].copy() if u == f.uiter else _EMPTY for u in range(len(arrs))
            ]
            copied += arrs[f.uiter].size
        if give > 0:
            copied += give
            any_split = True
            stack_f_new = cand[:split_at]
            f.cand[f.uiter] = stack_f_new
        sf = Frame(
            level=f.level,
            slot_vertices=f.slot_vertices.copy(),
            cand=stolen_cand,
            sets=stolen_sets,
            uiter=f.uiter,
            iter=0,
        )
        # the stealer must not revisit the target's slots before uiter;
        # emptied cand arrays already guarantee that, and iter=0 points
        # at the start of its stolen tail
        stolen.append(sf)
    if not any_split:
        return StolenWork(frames=[], copied_elems=0)
    return StolenWork(frames=stolen, copied_elems=copied)


def reabsorb(stack: WarpStack, work: StolenWork) -> None:
    """Undo a :func:`divide_and_copy` whose hand-off never happened.

    When a global-steal push message is lost (fault injection), the
    divided tail must return to the donor or its candidates — and their
    whole subtrees — would silently vanish.  ``divide_and_copy`` gives
    the thief the *tail* of each active slot, so re-appending the
    thief's segment restores the donor's arrays byte-for-byte.
    """
    for i, sf in enumerate(work.frames):
        f = stack.frames[i]
        seg = sf.cand[sf.uiter]
        if seg.size:
            f.cand[f.uiter] = np.concatenate([f.cand[f.uiter], seg])
