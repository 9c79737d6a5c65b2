"""The lowered level program and its run-time ops, tested as code.

What used to exist only as emitted string literals is now
``repro.core.lowering`` (pure) and ``repro.core.levelops`` (NumPy +
charges), so it gets ordinary unit tests:

* ``lower()`` is deterministic and schedules every set id exactly once
  over q1–q24 × {unlabeled, labeled} × {edge, vertex-induced} ×
  ``degree_filter``;
* every count-only leaf equals the generic fused-filter path — per-slot
  counts *and* the recorded charge / tracer stream — on randomly built
  stacks, on simple, self-loop, directed, overlay (both directions) and
  partition-shard graphs, with warm and invalidated memos, and the walk
  equals the per-slot reference in ``tests/oracle.py``;
* a flipped plan reads only its shared set's rows (once per stack and
  set) and the used vertices' rows, never a candidate's;
* a leaf plans once per parent slot and replays per batch: every window
  of a parent array equals the generic path evaluated on that batch
  alone, across steal splits, reabsorbed tails, moved prefixes and
  cloned frames, and over random window sequences (hypothesis).
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import QueryGraph
from repro.core.candidates import CandidateComputer
from repro.core.config import EngineConfig
from repro.core.kernel import run_kernel
from repro.core.levelops import LevelOps
from repro.core.lowering import Leaf, Src, lower
from repro.core.stack import Frame, WarpStack, divide_and_copy, reabsorb
from repro.dynamic import EditBatch, OverlayGraph
from repro.graph import CSRGraph
from repro.graph.generators import powerlaw_cluster
from repro.graph.labels import assign_random_labels
from repro.pattern import QUERIES, build_plan
from repro.scale import PartitionedGraph
from repro.virtgpu.device import VirtualDevice
from repro.virtgpu.warp import Warp

from tests.oracle import ReferenceCandidateComputer

ALL_QUERIES = [f"q{i}" for i in range(1, 25)]


def _labeled(q: QueryGraph) -> QueryGraph:
    return q.with_labels(np.arange(q.size, dtype=np.int32) % 3)


# ---------------------------------------------------------------------------
# lowering
# ---------------------------------------------------------------------------


class TestLowering:
    @pytest.mark.parametrize("qname", ALL_QUERIES)
    def test_deterministic_and_schedules_every_set_once(self, qname):
        for labeled in (False, True):
            q = _labeled(QUERIES[qname]) if labeled else QUERIES[qname]
            for induced in (False, True):
                plan = build_plan(q, vertex_induced=induced)
                again = build_plan(q, vertex_induced=induced)
                for degree_filter in (False, True):
                    levels = lower(plan, degree_filter, False)
                    assert levels == lower(again, degree_filter, False)
                    assert [lp.level for lp in levels] == list(range(1, plan.size))
                    scheduled = list(plan.program.sets_at_level[0])
                    for lp in levels:
                        self._check_level(plan, lp)
                        scheduled += [st.sid for st in lp.steps]
                    assert sorted(scheduled) == list(range(plan.program.num_sets))

    @staticmethod
    def _check_level(plan, lp):
        assert [st.sid for st in lp.steps] == list(plan.program.sets_at_level[lp.level])
        assert lp.cand_sid == plan.program.candidate_of_level[lp.level]
        keys = [(g.position, g.inbound) for g in lp.gathers]
        assert len(set(keys)) == len(keys)  # each neighbor list read once
        for g in lp.gathers:
            assert g.per_slot == (g.position == lp.level - 1)
            assert not g.keyed or g.per_slot
        for t in lp.tiles:
            assert (t.gather >= 0 and not lp.gathers[t.gather].per_slot) or t.level < lp.level
        done = set()
        for st in lp.steps:
            if st.src is Src.LOCAL:
                assert st.arg in done  # dependence-safe order
            elif st.src is Src.GATHER:
                assert lp.gathers[st.arg].per_slot
            else:
                assert 0 <= st.arg < len(lp.tiles)
            for op in st.ops:
                g = lp.gathers[op.gather]
                assert g.keyed == g.per_slot
            done.add(st.sid)
        restricted = set(plan.restrictions[lp.level])
        assert set(lp.floor_positions) | ({lp.level - 1} if lp.uses_slot else set()) == restricted
        if lp.leaf is not Leaf.NONE:
            assert lp.level == plan.size - 1 and lp.level >= 2

    def test_bitmap_flag_reaches_every_op(self):
        plan = build_plan(QUERIES["q6"])
        for on in (False, True):
            ops = [op for lp in lower(plan, False, on) for st in lp.steps for op in st.ops]
            assert ops and all(op.bitmap is on for op in ops)

    def test_every_leaf_kind_is_produced(self):
        kinds = {lower(build_plan(QUERIES[q]), False, False)[-1].leaf for q in ALL_QUERIES}
        assert kinds == set(Leaf)


# ---------------------------------------------------------------------------
# leaves vs the generic fused-filter path
# ---------------------------------------------------------------------------


class Recorder:
    """Tracer stand-in: records every hook call (minus the warp)."""

    def __init__(self):
        self.events = []

    def __getattr__(self, name):
        return lambda warp, *args: self.events.append((name, args))


def _warp():
    return Warp(warp_id=0, block_id=0, tracer=Recorder())


def _stream(warp):
    c = warp.counters
    return (warp.tracer.events, warp.clock, c.set_ops, c.copies, c.filters, c.rounds,
            c.busy_lanes)


def _random_graph(rng, n=28, p=0.3, directed=False, self_loops=False) -> CSRGraph:
    mask = rng.random((n, n)) < p
    if not directed:
        mask = np.triu(mask, 1)
        mask = mask | mask.T
    np.fill_diagonal(mask, rng.random(n) < 0.4 if self_loops else False)
    rows = [np.nonzero(mask[v])[0].astype(np.int32) for v in range(n)]
    indptr = np.concatenate([[0], np.cumsum([r.size for r in rows])]).astype(np.int64)
    return CSRGraph(indptr=indptr, indices=np.concatenate(rows), directed=directed)


def _overlay(rng, g: CSRGraph) -> OverlayGraph:
    # edit batches are canonical u < v pairs: a directed overlay can
    # delete only forward arcs (an undirected graph lists no others)
    edges = [(u, v) for u, v in g.edges() if u < v]
    deletes = [edges[i] for i in rng.choice(len(edges), 12, replace=False)]
    n = g.num_vertices
    inserts = [(u, v) for u, v in rng.integers(0, n, (120, 2)).tolist()
               if u != v and not g.has_edge(u, v)][:12]
    return OverlayGraph.from_edits(g, EditBatch.from_lists(inserts=inserts, deletes=deletes))


GRAPHS = {
    "simple": lambda rng: _random_graph(rng),
    "self-loops": lambda rng: _random_graph(rng, self_loops=True),
    "directed": lambda rng: _random_graph(rng, directed=True),
    "directed-self-loops": lambda rng: _random_graph(rng, directed=True, self_loops=True),
    "overlay": lambda rng: _overlay(rng, _random_graph(rng)),
    "directed-overlay": lambda rng: _overlay(rng, _random_graph(rng, directed=True)),
    # owns [0, 2): about half the rows are replica, the rest fallback reads
    "partition-shard": lambda rng: PartitionedGraph.replicate(_random_graph(rng), 0, 2),
}


def _fake_stack(prefix) -> WarpStack:
    """Frames 0 .. len(prefix): frame ``j`` matched ``prefix[j - 1]``."""
    frames = [Frame(level=0, slot_vertices=np.empty(0, np.int32), cand=[np.empty(0, np.int32)])]
    for j, v in enumerate(prefix, start=1):
        frames.append(Frame(level=j, slot_vertices=np.asarray([v], np.int32),
                            cand=[np.empty(0, np.int32)]))
    return WarpStack(frames=frames)


def _ops(graph, need) -> LevelOps:
    deg = graph.degree()
    if graph.directed:
        deg = deg + graph.reversed_view().degree()
    cap = max(int(graph.max_degree()) // 2, 1)  # small enough to spill
    return LevelOps(graph, cap, {}, deg if need else None, None, None)


def _cases(rng, graph, rounds=6):
    """(stack, prefix, slots, shared) draws on ONE stack object, so the
    per-stack memos are exercised: round 1 and 4 hit them warm, the
    prefix moves in the others, and the shared array (``ref`` / ``ca``)
    is replaced at round 3."""
    n = graph.num_vertices
    perm = rng.permutation(n).tolist()
    stack = _fake_stack([0, 0, 0])
    for r in range(rounds):
        if r % 3 == 0:
            shared = np.sort(rng.choice(n, rng.integers(0, n), replace=False)).astype(np.int32)
        if r % 3 != 1:
            prefix = perm[r: r + 3]
            for j, v in enumerate(prefix, start=1):
                stack.frames[j].slot_vertices = np.asarray([v], np.int32)
        free = np.setdiff1d(np.arange(n), prefix)
        slots = np.sort(rng.choice(free, rng.integers(1, 9), replace=False)).astype(np.int32)
        yield stack, prefix, slots, shared


TALLY_CONSTS = ((), False, None, 0)


def _leaf(kind, ops, warp, stack, win, prefix, shared, inbound, consts=TALLY_CONSTS):
    """The count-only leaf ``kind`` over window ``win`` of its parent."""
    if kind == "gather_free":
        return ops.leaf_gather_free(warp, stack, win, prefix, inbound)
    if kind == "flipped":
        return ops.leaf_flipped(warp, stack, win, prefix, shared, inbound)
    return ops.leaf_tally(warp, stack, win, prefix, shared, *consts)


def _generic(kind, ops, warp, slots, prefix, shared, inbound, consts=TALLY_CONSTS):
    """What the leaf stands for: the level's set steps and the fused
    ``finish`` filter on ``slots`` alone, nothing memoized."""
    n = slots.size
    if kind == "gather_free":
        g = ops.gather_slots(slots, inbound, False)
        cand = ops.seal(warp, g.vals, g.segs, None, n, True)
        return ops.finish(warp, 4, slots, prefix, cand, (), False, None, 0, True, {})
    if kind == "flipped":
        g = ops.gather_slots(slots, inbound, True)
        vals, segs = ops.set_op(warp, *ops.tile(shared, n), g, False)
        cand = ops.seal(warp, vals, segs, None, n)
        return ops.finish(warp, 4, slots, prefix, cand, (), False, None, 0, True, {})
    return ops.finish(warp, 4, slots, prefix, ops.tile(shared, n), *consts, True, {})


def _assert_leaf_is_generic(kind, ops, stack, win, prefix, shared, inbound,
                            consts=TALLY_CONSTS):
    a, b = _warp(), _warp()
    cand, lo, hi = win
    got = _leaf(kind, ops, a, stack, win, prefix, shared, inbound, consts)
    want = _generic(kind, ops, b, cand[lo:hi], prefix, shared, inbound, consts)
    assert got.tolist() == want.tolist()
    assert _stream(a) == _stream(b)


@pytest.mark.parametrize("gname", list(GRAPHS))
class TestLeavesEqualGenericPath:
    @staticmethod
    def _both_directions(gname, kind, seed):
        rng = np.random.default_rng(seed)
        graph = GRAPHS[gname](rng)
        for inbound in ((False, True) if graph.directed else (False,)):
            ops = _ops(graph, need=False)
            for stack, prefix, slots, ref in _cases(rng, graph):
                _assert_leaf_is_generic(kind, ops, stack, (slots, 0, slots.size), prefix, ref,
                                        inbound)

    def test_gather_free(self, gname):
        self._both_directions(gname, "gather_free", seed=1)

    def test_flipped(self, gname):
        self._both_directions(gname, "flipped", seed=2)

    @pytest.mark.parametrize("uses_slot", [False, True])
    @pytest.mark.parametrize("floor_positions", [(), (1,), (0, 2)])
    @pytest.mark.parametrize("label,need", [(None, 0), (1, 0), (None, 3), (2, 2)])
    def test_tally(self, gname, uses_slot, floor_positions, label, need):
        rng = np.random.default_rng(3)
        graph = GRAPHS[gname](rng)
        if label is not None:
            if isinstance(graph, OverlayGraph):
                pytest.skip("labels ride on the base graph; covered by the CSR cases")
            graph = assign_random_labels(graph, num_labels=3, seed=5)
        ops = _ops(graph, need=need > 1)
        consts = (floor_positions, uses_slot, label, need)
        for stack, prefix, slots, ca in _cases(rng, graph):
            _assert_leaf_is_generic("tally", ops, stack, (slots, 0, slots.size), prefix, ca,
                                    False, consts)


@pytest.mark.parametrize("gname,inbound", [("self-loops", False),
                                            ("directed-self-loops", False),
                                            ("directed-self-loops", True)])
def test_flipped_self_loop_candidate_in_ref(gname, inbound):
    """``ref`` holds candidates that have self-loops: the one term (r = v)
    where the reverse rows ``leaf_flipped`` counts from and the slot's
    own row can disagree, since a reversed view drops self-loops."""
    rng = np.random.default_rng(8)
    graph = GRAPHS[gname](rng)
    n = graph.num_vertices
    loops = [v for v in range(n) if graph.has_edge(v, v)]
    assert len(loops) >= 4
    prefix = [v for v in range(n) if v not in loops][:3]
    others = np.setdiff1d(np.arange(n), prefix + loops)
    ref = np.sort(np.concatenate([loops, prefix[:1], others[::2]])).astype(np.int32)
    slots = np.sort(np.concatenate([loops, others[:5]])).astype(np.int32)
    ops = _ops(graph, need=False)
    stack = _fake_stack(prefix)
    for lo in range(0, slots.size, UNROLL):  # one plan, replayed per batch
        _assert_leaf_is_generic("flipped", ops, stack, (slots, lo, min(lo + UNROLL, slots.size)),
                                prefix, ref, inbound)


def test_flipped_plans_read_only_the_shared_set_and_used_rows(monkeypatch):
    """The shape of a flipped plan's work, pinned as a count: over a q5
    kernel run, every graph row a ``leaf_flipped`` call reads belongs to
    its shared set ``ref`` or to a used prefix vertex in ``ref`` — no
    candidate's own row — and ``ref``'s rows are gathered exactly once
    per (stack, ``ref``), however many parent slots plan under it."""
    graph = powerlaw_cluster(60, m=5, p_triangle=0.5, seed=3)
    plan, cfg = build_plan(QUERIES["q5"]), EngineConfig()
    computer = CandidateComputer(graph, plan, cfg)
    assert computer.levels[-1].leaf is Leaf.FLIPPED
    computer.ops.self_loops(False)  # the once-per-graph scan reads every row
    calls = []  # (stack, ref, prefix, rows read): also keeps the ids alive
    inside = []  # the rows list of the leaf_flipped call in progress
    flipped, batch, row = LevelOps.leaf_flipped, CSRGraph.neighbors_batch, CSRGraph.neighbors

    def leaf_flipped(self, warp, stack, win, m_prefix, ref, inbound):
        calls.append((stack, ref, list(m_prefix), []))
        inside.append(calls[-1][3])
        try:
            return flipped(self, warp, stack, win, m_prefix, ref, inbound)
        finally:
            inside.pop()

    def reading(fn, as_rows):
        def read(self, arg):
            if inside:
                inside[-1].append(as_rows(arg))
            return fn(self, arg)
        return read

    monkeypatch.setattr(LevelOps, "leaf_flipped", leaf_flipped)
    monkeypatch.setattr(CSRGraph, "neighbors_batch", reading(batch, lambda vs: vs))
    monkeypatch.setattr(CSRGraph, "neighbors", reading(row, lambda v: np.asarray([v])))
    got = run_kernel(plan, cfg, computer, VirtualDevice(cfg.device)).matches
    monkeypatch.undo()
    assert got == run_kernel(plan, cfg, CandidateComputer(graph, plan, cfg),
                             VirtualDevice(cfg.device)).matches > 0
    builds = {(id(stack), id(ref)): 0 for stack, ref, _, _ in calls}
    for stack, ref, prefix, reads in calls:
        for rows in reads:
            if rows is ref:
                builds[id(stack), id(ref)] += 1
            else:
                assert set(rows.tolist()) <= set(prefix) & set(ref.tolist())
    assert len(calls) > 100 and len(builds) > 10
    assert set(builds.values()) == {1}


# ---------------------------------------------------------------------------
# plan once per parent slot, replay per batch
# ---------------------------------------------------------------------------

UNROLL = 4
WINDOWED = [("gather_free", TALLY_CONSTS), ("flipped", TALLY_CONSTS), ("tally", TALLY_CONSTS),
            ("tally", ((1,), True, None, 0)), ("tally", ((0, 2), False, None, 3))]


def _parent_stack(rng, graph, size=21):
    """A stack whose top frame iterates one parent slot of ``size``
    candidates, entered mid-batch, plus two prefixes that avoid them
    and a shared set."""
    n = graph.num_vertices
    perm = rng.permutation(n)
    prefix, moved = perm[:3].tolist(), [int(perm[3])] + perm[1:3].tolist()
    parent = np.sort(perm[4: 4 + size]).astype(np.int32)
    shared = np.sort(rng.choice(n, n // 2, replace=False)).astype(np.int32)
    stack = _fake_stack(prefix)
    stack.top.cand = [parent]
    stack.top.iter = 3  # windows start off the UNROLL grid
    return stack, prefix, moved, shared


def _next_batch(stack):
    """What ``WarpTask._batch_step`` hands the leaf: the next UNROLL
    candidates of the active slot as a window of it."""
    f = stack.top
    lo = f.iter
    f.iter = min(lo + UNROLL, f.active_cand().size)
    return (f.active_cand(), lo, f.iter)


def _split(stack, **_):
    """A steal halves the parent slot: the donor keeps a shorter view,
    the thief continues on a copy of the tail."""
    return WarpStack(frames=divide_and_copy(stack, stop_level=3).frames)


def _lost_push(stack, **_):
    work = divide_and_copy(stack, stop_level=3)
    assert not work.empty
    reabsorb(stack, work)


def _move_prefix(stack, moved, **_):
    stack.frames[1].slot_vertices = np.asarray(moved[:1], np.int32)


def _restore(stack, **_):
    stack.frames = [f.clone() for f in stack.frames]


@pytest.mark.parametrize("gname", list(GRAPHS))
@pytest.mark.parametrize("kind,consts", WINDOWED)
@pytest.mark.parametrize("event", [_split, _lost_push, _move_prefix, _restore])
def test_windows_replay_the_generic_path_across(event, kind, consts, gname):
    rng = np.random.default_rng(6)
    graph = GRAPHS[gname](rng)
    for inbound in ((False, True) if graph.directed and kind != "tally" else (False,)):
        ops = _ops(graph, need=consts[3] > 1)
        stack, prefix, moved, shared = _parent_stack(rng, graph)
        live = [stack]
        for step in range(2):  # a warm plan, then the event, then the rest
            _assert_leaf_is_generic(kind, ops, stack, _next_batch(stack), prefix, shared,
                                    inbound, consts)
        other = event(stack, moved=moved)
        if other is not None:
            live.append(other)
        batches = 0
        for s in live:
            now = s.match_up_to(3)
            assert now == (moved if event is _move_prefix else prefix)
            while s.top.remaining_active():
                _assert_leaf_is_generic(kind, ops, s, _next_batch(s), now, shared, inbound,
                                        consts)
                batches += 1
        assert batches >= 3


@given(seed=st.integers(0, 2**31), kind=st.sampled_from(WINDOWED), data=st.data())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_window_sequences_equal_uncached_evaluation(seed, kind, data):
    kind, consts = kind
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng, self_loops=bool(seed % 2), directed=bool(seed % 3 == 0))
    inbound = graph.directed and kind != "tally" and bool(seed % 5 == 0)
    stack, prefix, _, shared = _parent_stack(rng, graph)
    parent = stack.top.active_cand()
    cuts = data.draw(st.lists(st.tuples(st.integers(0, parent.size - 1), st.integers(1, 9)),
                              min_size=1, max_size=8))
    ops = _ops(graph, need=consts[3] > 1)
    a, b = _warp(), _warp()
    got, want = [], []
    for lo, width in cuts:
        win = (parent, lo, min(lo + width, parent.size))
        got += _leaf(kind, ops, a, stack, win, prefix, shared, inbound, consts).tolist()
        want += _generic(kind, _ops(graph, need=consts[3] > 1), b, parent[lo: win[2]], prefix,
                         shared, inbound, consts).tolist()
    assert got == want
    assert _stream(a) == _stream(b)


# ---------------------------------------------------------------------------
# the walk: leaf on, leaf off (frame path), per-slot reference
# ---------------------------------------------------------------------------


def _descend(comp, rng, unroll):
    """A random live stack down to the frame above the last level, plus
    one batch of its candidates and the window it was cut from — or
    ``None`` when the draw dead-ends."""
    stack = WarpStack()
    stack.push(comp.root_frame(comp.root_candidates))
    for level in range(1, comp.plan.size):
        top = stack.top
        live = [u for u in range(top.nslots) if top.cand[u].size]
        if not live:
            return None
        top.uiter = int(rng.choice(live))
        lo = int(rng.integers(0, top.cand[top.uiter].size))
        batch = top.cand[top.uiter][lo: lo + unroll]
        top.iter = lo + batch.size
        if level == comp.plan.size - 1:
            return stack, batch, (top.cand[top.uiter], lo, top.iter)
        stack.push(comp.compute_frame(None, stack, level, batch))
    return None


@pytest.mark.parametrize("gname", list(GRAPHS))
def test_walk_leaf_equals_frame_path_and_reference(gname):
    rng = np.random.default_rng(4)
    graph = GRAPHS[gname](rng)
    if graph.directed:
        queries = [QueryGraph.from_arcs(4, [(0, 1), (1, 2), (0, 2), (2, 3)]),
                   QueryGraph.from_arcs(4, [(1, 0), (2, 1), (3, 2)]),
                   QueryGraph.from_arcs(3, [(1, 0), (2, 0)])]
    else:
        queries = [QUERIES[q] for q in ("q1", "q2", "q5", "q7", "q11", "q15")]
    seen = set()
    for q in queries:
        plan = build_plan(q)
        fast = CandidateComputer(graph, plan, EngineConfig(max_degree=8))
        ref = ReferenceCandidateComputer(graph, plan, EngineConfig(max_degree=8))
        last = plan.size - 1
        seen.add(fast.levels[-1].leaf)
        for _ in range(12):
            drawn = _descend(fast, rng, unroll=4)
            if drawn is None:
                continue
            stack, batch, win = drawn
            a, b, c, w = _warp(), _warp(), _warp(), _warp()
            counts = fast.compute_frame(a, stack, last, batch, count_only=True)
            windowed = fast.compute_frame(w, stack, last, batch, count_only=win)
            frame = fast.compute_frame(b, stack, last, batch)
            oracle = ref.compute_frame(c, stack, last, batch)
            assert counts.tolist() == windowed.tolist() == [x.size for x in frame.cand] == \
                [x.size for x in oracle.cand]
            assert _stream(a) == _stream(w) == _stream(b) == _stream(c)
    if not graph.directed:
        assert seen == set(Leaf)


# ---------------------------------------------------------------------------
# scale: a leaf step's memory follows the parent slot, not the graph
# ---------------------------------------------------------------------------


class _LeafAllocProbe:
    """Delegating computer that records the largest amount of memory
    any single count-only ``compute_frame`` call had live at once."""

    def __init__(self, inner):
        self._inner = inner
        self.leaf_steps = 0
        self.peak = 0

    def compute_frame(self, warp, stack, level, slot_vertices, count_only=False):
        if not count_only:
            return self._inner.compute_frame(warp, stack, level, slot_vertices)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        counts = self._inner.compute_frame(warp, stack, level, slot_vertices, count_only)
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - before)
        self.leaf_steps += 1
        return counts

    def __getattr__(self, name):
        return getattr(self._inner, name)


@pytest.mark.parametrize("qname", ["q5", "q7"])  # the flipped and the gather-free leaf
def test_no_leaf_step_allocates_per_vertex_scratch(qname):
    pad = 500_000
    small = powerlaw_cluster(48, m=6, p_triangle=0.5, seed=3)
    graph = CSRGraph(indptr=np.concatenate([small.indptr, np.full(pad, small.indptr[-1])]),
                     indices=small.indices)  # + `pad` isolated vertices
    plan, cfg = build_plan(QUERIES[qname]), EngineConfig()
    roots = (0, small.num_vertices)

    def launch(computer):
        return run_kernel(plan, cfg, computer, VirtualDevice(cfg.device), root_range=roots)

    # the first launch pays the once-per-graph tables (degrees, self-loop scan)
    want = launch(CandidateComputer(graph, plan, cfg)).matches
    probe = _LeafAllocProbe(CandidateComputer(graph, plan, cfg))
    tracemalloc.start()
    try:
        got = launch(probe).matches
    finally:
        tracemalloc.stop()
    assert got == want == run_kernel(plan, cfg, CandidateComputer(small, plan, cfg),
                                     VirtualDevice(cfg.device)).matches > 0
    assert probe.leaf_steps > 50
    assert probe.peak < pad  # less than one byte per vertex
