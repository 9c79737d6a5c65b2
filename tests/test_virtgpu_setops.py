"""Unit + property tests for warp-parallel set operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.levelops import LevelOps
from repro.core.membership import member_sorted
from repro.graph.csr import CSRGraph
from repro.virtgpu import (
    Warp,
    combined_set_op,
    combined_set_op_lockstep,
    single_set_op,
)


def sorted_unique(draw_list):
    return np.array(sorted(set(draw_list)), dtype=np.int64)


sets_strategy = st.lists(
    st.tuples(
        st.lists(st.integers(0, 60), max_size=20),
        st.lists(st.integers(0, 60), max_size=20),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


class TestSingleOp:
    def test_intersection(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5])
        assert list(single_set_op(None, a, b)) == [3, 5]

    def test_difference(self):
        a = np.array([1, 3, 5, 7])
        b = np.array([3, 4, 5])
        assert list(single_set_op(None, a, b, difference=True)) == [1, 7]

    def test_empty_input(self):
        out = single_set_op(None, np.array([], dtype=int), np.array([1, 2]))
        assert out.size == 0

    def test_empty_operand_intersection(self):
        out = single_set_op(None, np.array([1, 2]), np.array([], dtype=int))
        assert out.size == 0

    def test_empty_operand_difference(self):
        out = single_set_op(None, np.array([1, 2]), np.array([], dtype=int), difference=True)
        assert list(out) == [1, 2]


class TestCombinedOp:
    def test_mixed_kinds(self):
        res = combined_set_op(
            None,
            [np.array([1, 2, 3]), np.array([2, 4, 6])],
            [np.array([2, 3]), np.array([4])],
            [False, True],
        )
        assert list(res[0]) == [2, 3]
        assert list(res[1]) == [2, 6]

    def test_misaligned_args(self):
        with pytest.raises(ValueError):
            combined_set_op(None, [np.array([1])], [np.array([1])], [False, True])

    def test_cost_charged_once_for_batch(self):
        w = Warp(warp_id=0, block_id=0)
        combined_set_op(
            w,
            [np.arange(10), np.arange(10)],
            [np.arange(5), np.arange(5)],
            [False, False],
        )
        assert w.counters.set_ops == 1
        assert w.counters.busy_lanes == 20
        assert w.counters.rounds == 1  # 20 elements fit one 32-lane round

    def test_unroll_cost_advantage(self):
        """Eight 4-element ops combined use 1 round; separate use 8."""
        sets = [np.arange(4) for _ in range(8)]
        ops = [np.arange(2) for _ in range(8)]
        w_comb = Warp(warp_id=0, block_id=0)
        combined_set_op(w_comb, sets, ops, [False] * 8)
        w_sep = Warp(warp_id=1, block_id=0)
        for s, o in zip(sets, ops):
            combined_set_op(w_sep, [s], [o], [False])
        assert w_comb.counters.rounds == 1
        assert w_sep.counters.rounds == 8
        assert w_comb.counters.thread_utilization > w_sep.counters.thread_utilization
        assert w_comb.clock < w_sep.clock

    @given(sets_strategy)
    @settings(max_examples=80)
    def test_matches_numpy_reference(self, spec):
        inputs = [sorted_unique(a) for a, _, _ in spec]
        operands = [sorted_unique(b) for _, b, _ in spec]
        kinds = [d for _, _, d in spec]
        res = combined_set_op(None, inputs, operands, kinds)
        for i in range(len(spec)):
            expected = (
                np.setdiff1d(inputs[i], operands[i])
                if kinds[i]
                else np.intersect1d(inputs[i], operands[i])
            )
            assert np.array_equal(res[i], expected)

    @given(sets_strategy)
    @settings(max_examples=40)
    def test_lockstep_equals_fast_path(self, spec):
        """The Fig. 8 lane-by-lane reference and the vectorized
        production path must agree exactly."""
        inputs = [sorted_unique(a) for a, _, _ in spec]
        operands = [sorted_unique(b) for _, b, _ in spec]
        kinds = [d for _, _, d in spec]
        fast = combined_set_op(None, inputs, operands, kinds)
        slow = combined_set_op_lockstep(None, inputs, operands, kinds)
        for f, s in zip(fast, slow):
            assert np.array_equal(f, s)

    def test_lockstep_multi_round(self):
        """More than 32 total elements spans several warp rounds."""
        inputs = [np.arange(0, 100, 2), np.arange(1, 99, 2)]
        operands = [np.arange(0, 100, 4), np.arange(1, 99, 8)]
        fast = combined_set_op(None, inputs, operands, [False, True])
        slow = combined_set_op_lockstep(None, inputs, operands, [False, True])
        for f, s in zip(fast, slow):
            assert np.array_equal(f, s)

    def test_results_stay_sorted_unique(self):
        res = combined_set_op(
            None, [np.array([1, 5, 9, 12])], [np.array([1, 9, 12])], [False]
        )[0]
        assert np.array_equal(res, np.unique(res))


def _segmented(slot_arrays):
    """Flatten per-slot arrays into the (values, segments) batch form."""
    vals = (np.concatenate(slot_arrays) if any(a.size for a in slot_arrays)
            else np.empty(0, dtype=np.int64))
    segs = np.repeat(np.arange(len(slot_arrays), dtype=np.int64),
                     [a.size for a in slot_arrays])
    return vals, segs


def _ops_over(rows, n=61):
    """``LevelOps`` over a graph whose row ``i`` is ``rows[i]`` (later
    vertices isolated), so gathers of vertices ``0..len(rows)-1`` are
    the batched set-op operands ``rows``."""
    sizes = [len(r) for r in rows] + [0] * (n - len(rows))
    indptr = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    indices = np.concatenate([np.asarray(r, dtype=np.int32) for r in rows]
                             + [np.empty(0, dtype=np.int32)])
    return LevelOps(CSRGraph(indptr=indptr, indices=indices), 1 << 20, {})


class TestMembershipBatch:
    """``member_sorted``, the search under every ``LevelOps`` set op,
    plain and keyed by ``value + segment * n`` for per-slot operands."""

    def test_broadcast_operand(self):
        needles = np.array([1, 3, 5, 7, 9, 10])  # 1 before, 10 past the end
        assert member_sorted(np.array([3, 7, 9]), needles).tolist() == [
            False, True, False, True, True, False]

    def test_empty_cases(self):
        assert member_sorted(np.array([], dtype=np.int64), np.array([1])).tolist() == [False]
        assert member_sorted(np.array([1]), np.array([], dtype=np.int64)).size == 0

    def test_segmented_membership_is_per_segment(self):
        ops = _ops_over([[1], [2]], n=10)
        vals, segs = _segmented([np.array([1, 2]), np.array([1, 2])])
        opnd = ops.gather_slots(np.array([0, 1]), inbound=False, keyed=True)
        got_v, got_s = ops.set_op(Warp(warp_id=0, block_id=0), vals, segs, opnd, difference=False)
        assert got_v.tolist() == [1, 2] and got_s.tolist() == [0, 1]

    def test_segmented_empty_segment_never_matches(self):
        ops = _ops_over([[5], []], n=10)
        vals, segs = _segmented([np.array([5]), np.array([5])])
        opnd = ops.gather_slots(np.array([0, 1]), inbound=False, keyed=True)
        got_v, got_s = ops.set_op(Warp(warp_id=0, block_id=0), vals, segs, opnd, difference=False)
        assert got_v.tolist() == [5] and got_s.tolist() == [0]


class TestCombinedSetOpBatch:
    """``LevelOps.set_op``: one search for a whole unrolled batch, with
    the per-slot ``combined_set_op``'s results and charges."""

    @given(sets_strategy, st.booleans())
    @settings(max_examples=80)
    def test_matches_per_slot_path(self, spec, difference):
        inputs = [sorted_unique(a) for a, _, _ in spec]
        operands = [sorted_unique(b) for _, b, _ in spec]
        m = len(spec)
        w_slot = Warp(warp_id=0, block_id=0)
        expected = combined_set_op(w_slot, inputs, operands, [difference] * m)
        ops = _ops_over(operands)
        opnd = ops.gather_slots(np.arange(m), inbound=False, keyed=True)
        vals, segs = _segmented(inputs)
        w_batch = Warp(warp_id=1, block_id=0)
        got_v, got_s = ops.set_op(w_batch, vals, segs, opnd, difference)
        exp_v, exp_s = _segmented(expected)
        assert got_v.tolist() == exp_v.tolist()
        assert got_s.tolist() == exp_s.tolist()
        # identical warp charges: the fast path's cycle contract
        assert w_batch.clock == w_slot.clock
        assert w_batch.counters.rounds == w_slot.counters.rounds
        assert w_batch.counters.busy_lanes == w_slot.counters.busy_lanes

    def test_broadcast_equals_replicated_operand(self):
        inputs = [np.array([1, 2, 3]), np.array([2, 4])]
        operand = np.array([2, 3])
        ops = _ops_over([operand], n=10)
        vals, segs = _segmented(inputs)
        w_b = Warp(warp_id=0, block_id=0)
        got_v, got_s = ops.set_op(w_b, vals, segs, ops.gather_prefix(0, inbound=False), False)
        w_s = Warp(warp_id=1, block_id=0)
        expected = combined_set_op(w_s, inputs, [operand] * 2, [False] * 2)
        exp_v, exp_s = _segmented(expected)
        assert got_v.tolist() == exp_v.tolist()
        assert got_s.tolist() == exp_s.tolist()
        assert w_b.clock == w_s.clock
