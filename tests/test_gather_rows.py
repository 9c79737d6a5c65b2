"""The one CSR row gather behind every ``neighbors_batch``.

``graph.csr.gather_rows`` slices row by row for batches of at most
``SLICE_GATHER_ROWS`` rows and fancy-indexes larger ones; both must
return exactly the concatenated per-row ``neighbors(v)`` lists.  Pinned
here on every graph type that reads through it — plain, reversed,
memory-mapped, partition replica (and its fallback to the base), and
overlay rows touched or untouched by edits — at batch sizes on both
sides of the switch, and graphs must still pickle after gathers.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.dynamic import EditBatch, OverlayGraph
from repro.graph.csr import SLICE_GATHER_ROWS, CSRGraph, gather_rows
from repro.scale import PartitionedGraph, load_csr_store, save_csr_store

N, ISOLATED = 160, 155  # vertices 150.. have no edges
SIZES = [0, 1, SLICE_GATHER_ROWS, SLICE_GATHER_ROWS + 1, 120]


def _graph(directed: bool = False) -> CSRGraph:
    rng = np.random.default_rng(3)
    return CSRGraph.from_edges(N, rng.integers(0, 150, (500, 2)), directed=directed)


def _batch(size: int, pool: np.ndarray, dtype: type = np.int64) -> np.ndarray:
    """``size`` rows drawn from ``pool``, with a duplicate row once
    there is room for one."""
    vs = np.random.default_rng(size).choice(pool, size).astype(dtype)
    if size >= 2:
        vs[-1] = vs[0]
    return vs


def _check(graph, vs: np.ndarray) -> None:
    """``graph.neighbors_batch(vs)`` is the concatenation of the rows."""
    vals, offs = graph.neighbors_batch(vs)
    rows = [graph.neighbors(int(v)) for v in vs]
    assert type(vals) is np.ndarray and vals.dtype == np.int32
    assert offs.dtype == np.int64
    assert offs.tolist() == np.cumsum([0] + [r.size for r in rows]).tolist()
    expect = np.concatenate(rows) if rows else np.empty(0, dtype=np.int32)
    assert vals.tolist() == expect.tolist()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
@pytest.mark.parametrize("size", SIZES)
def test_plain_graph_rows(size, dtype):
    g = _graph()
    vs = _batch(size, np.arange(N), dtype)
    if size >= 3:
        vs[1] = ISOLATED
    _check(g, vs)


@pytest.mark.parametrize("size", SIZES)
def test_gather_rows_returns_a_fresh_array(size):
    g = _graph()
    vals, _ = gather_rows(g.indptr, g.indices, _batch(size, np.arange(150)))
    assert not np.shares_memory(vals, g.indices)


@pytest.mark.parametrize("size", SIZES)
def test_reversed_view_rows(size):
    rev = _graph(directed=True).reversed_view()
    _check(rev, _batch(size, np.arange(N)))


def test_memmap_store_rows(tmp_path):
    g = load_csr_store(save_csr_store(_graph(), tmp_path / "g"), mmap=True)
    assert isinstance(g.indptr, np.memmap)
    for size in SIZES:
        _check(g, _batch(size, np.arange(N)))


class TestPartitionedRows:
    @pytest.fixture()
    def shard(self):
        base = _graph()
        shard = PartitionedGraph.replicate(base, 0, 20)
        owned = np.arange(20)
        replica = np.union1d(owned, base.neighbors_batch(owned)[0])
        outside = np.setdiff1d(np.arange(N), replica)
        assert outside.size and ISOLATED in outside
        return shard, replica, outside

    @pytest.mark.parametrize("size", SIZES)
    def test_replica_rows_never_fall_back(self, shard, size):
        g, replica, _ = shard
        _check(g, _batch(size, replica))
        assert g.fallback_rows == 0

    @pytest.mark.parametrize("size", SIZES[1:])
    def test_fallback_counts_every_escaped_row(self, shard, size):
        g, replica, outside = shard
        vs = _batch(size, replica)
        escaped = max(1, size // 3)
        vs[:escaped] = _batch(escaped, outside)
        vals, offs = g.neighbors_batch(vs)
        assert g.fallback_rows == escaped
        assert vals.tolist() == g.base.neighbors_batch(vs)[0].tolist()
        assert offs.tolist() == g.base.neighbors_batch(vs)[1].tolist()


@pytest.mark.parametrize("size", SIZES)
def test_overlay_rows(size):
    base = _graph()
    edits = EditBatch.from_lists(inserts=[(0, 151), (2, 3)], deletes=[tuple(base.edges())[0]])
    ov = OverlayGraph.from_edits(base, edits.normalized_against(base))
    touched = np.flatnonzero([not np.array_equal(ov.neighbors(v), base.neighbors(v))
                              for v in range(N)])
    untouched = np.setdiff1d(np.arange(N), touched)
    _check(ov, _batch(size, untouched))
    vs = _batch(size, np.arange(N))
    vs[: min(size, 2)] = touched[: min(size, 2)]
    _check(ov, vs)
    compact = ov.compact()
    for got, want in zip(ov.neighbors_batch(vs), compact.neighbors_batch(vs)):
        assert got.tolist() == want.tolist()


def test_graphs_pickle_after_gathers_on_both_sides():
    g = _graph()
    shard = PartitionedGraph.replicate(g, 0, 20)
    small, large = np.arange(SLICE_GATHER_ROWS), np.arange(SLICE_GATHER_ROWS + 1)
    for graph in (g, shard):
        graph.neighbors_batch(small)
        graph.neighbors_batch(large)
        back = pickle.loads(pickle.dumps(graph))
        for vs in (small, large):
            for got, want in zip(back.neighbors_batch(vs), graph.neighbors_batch(vs)):
                assert got.tolist() == want.tolist()
