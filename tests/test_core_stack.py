"""Unit tests for warp stacks, frames and divide-and-copy stealing."""

import numpy as np
import pytest

from repro.core.stack import Frame, WarpStack, divide_and_copy

A = lambda *xs: np.array(xs, dtype=np.int64)
EMPTY = np.empty(0, dtype=np.int64)


def make_frame(level, cands, uiter=0, it=0, slot_vertices=None, sets=None):
    if slot_vertices is None:
        slot_vertices = np.arange(100, 100 + len(cands))
    return Frame(
        level=level,
        slot_vertices=np.asarray(slot_vertices),
        cand=[np.asarray(c) for c in cands],
        sets=sets or {},
        uiter=uiter,
        iter=it,
    )


class TestFrame:
    def test_remaining_active(self):
        f = make_frame(1, [A(1, 2, 3, 4)], it=1)
        assert f.remaining_active() == 3

    def test_remaining_total_counts_later_slots(self):
        f = make_frame(1, [A(1, 2), A(3, 4, 5)], uiter=0, it=2)
        assert f.remaining_active() == 0
        assert f.remaining_total() == 3

    def test_active_vertex_root(self):
        f = Frame(level=0, slot_vertices=np.empty(0, dtype=np.int64), cand=[A(1, 2)])
        assert f.active_vertex == -1

    def test_payload_elems(self):
        f = make_frame(1, [A(1, 2)], sets={0: [A(5, 6, 7)]})
        assert f.payload_elems() == 5


class TestWarpStack:
    def test_push_pop_depth(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(1)]))
        s.push(make_frame(1, [A(2)]))
        assert s.depth == 2
        assert s.pop().level == 1

    def test_push_wrong_level_rejected(self):
        s = WarpStack()
        with pytest.raises(ValueError):
            s.push(make_frame(1, [A(1)]))

    def test_partial_match(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(7, 8)]))
        s.push(make_frame(1, [A(9)], slot_vertices=A(7)))
        s.push(make_frame(2, [A(11)], slot_vertices=A(9)))
        assert s.partial_match() == [7, 9]
        assert s.match_up_to(1) == [7]

    def test_has_stealable(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(1, 2, 3)], iter=0))
        assert s.has_stealable(stop_level=2)
        s.frames[0].iter = 2  # one remaining: not divisible
        assert not s.has_stealable(stop_level=2)

    def test_remaining_below_weights_shallow(self):
        deep = WarpStack()
        deep.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(1)], iter=1))
        deep.push(make_frame(1, [A(1, 2, 3, 4)]))
        shallow = WarpStack()
        shallow.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(1, 2, 3, 4)]))
        assert shallow.remaining_below(2) > deep.remaining_below(2)


class TestDivideAndCopy:
    def _stack(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(0, 1, 2, 3, 4, 5)], iter=2))
        s.push(
            Frame(
                level=1,
                slot_vertices=A(1),
                cand=[A(10, 11, 12, 13)],
                sets={3: [A(10, 11, 12, 13, 14)]},
                iter=1,
            )
        )
        s.push(make_frame(2, [A(20, 21)], slot_vertices=A(10)))
        return s

    def test_split_halves_each_level(self):
        s = self._stack()
        work = divide_and_copy(s, stop_level=1)
        assert not work.empty
        # level 0: 4 remaining -> target keeps 2+2 consumed, stealer 2
        assert list(s.frames[0].cand[0]) == [0, 1, 2, 3]
        assert list(work.frames[0].cand[0]) == [4, 5]
        # level 1: 3 remaining -> keep 2, steal 1
        assert list(s.frames[1].cand[0]) == [10, 11, 12]
        assert list(work.frames[1].cand[0]) == [13]
        # stealer's iter points at the start of its halves
        assert all(f.iter == 0 for f in work.frames)

    def test_levels_beyond_stop_not_copied(self):
        s = self._stack()
        work = divide_and_copy(s, stop_level=1)
        assert len(work.frames) == 2  # levels 0 and 1 only

    def test_intermediate_sets_travel(self):
        s = self._stack()
        work = divide_and_copy(s, stop_level=1)
        assert 3 in work.frames[1].sets
        assert list(work.frames[1].sets[3][0]) == [10, 11, 12, 13, 14]

    def test_inactive_slots_emptied(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(0, 1, 2, 3)], iter=0))
        s.push(
            Frame(
                level=1,
                slot_vertices=A(0, 1),
                cand=[A(10, 11, 12, 13), A(20, 21, 22)],
                uiter=0,
                iter=0,
            )
        )
        work = divide_and_copy(s, stop_level=2)
        # stealer gets half of the ACTIVE slot, nothing from slot 1
        assert work.frames[1].cand[1].size == 0
        # the target keeps slot 1 untouched
        assert list(s.frames[1].cand[1]) == [20, 21, 22]

    def test_nothing_divisible(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(1)], iter=0))
        work = divide_and_copy(s, stop_level=2)
        assert work.empty

    def test_single_remaining_not_split(self):
        s = WarpStack()
        s.push(Frame(level=0, slot_vertices=EMPTY, cand=[A(1, 2)], iter=1))
        work = divide_and_copy(s, stop_level=0)
        assert work.empty
        assert list(s.frames[0].cand[0]) == [1, 2]

    def test_copied_elems_counts_payload(self):
        s = self._stack()
        work = divide_and_copy(s, stop_level=1)
        # 2 (level-0 steal) + 1 (level-1 steal) + 5 (set copy) = 8
        assert work.copied_elems == 8

    def test_disjoint_coverage(self):
        """Target + stealer candidates partition the original remaining."""
        s = self._stack()
        orig_lvl0 = list(s.frames[0].cand[0])
        orig_iter0 = s.frames[0].iter
        work = divide_and_copy(s, stop_level=1)
        kept = list(s.frames[0].cand[0])[orig_iter0:]
        stolen = list(work.frames[0].cand[0])
        assert sorted(kept + stolen) == sorted(orig_lvl0[orig_iter0:])
