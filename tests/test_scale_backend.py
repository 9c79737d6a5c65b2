"""Out-of-core graph backend: store, memmap twin, chunked ingest.

The scale tier's first contract is that *where the CSR arrays live is
invisible to matching*: a memory-mapped graph must produce byte-
identical matches AND simulated cycles to the in-memory original over
the full golden matrix.  The second is that the chunked ingest path —
which never materializes the whole edge list — builds arrays byte-
identical to :meth:`CSRGraph.from_edges`.  Both identities are pinned
here, along with the on-disk store round-trip, backend resolution
precedence, shard residency over a mapped store, the adjacency-bitmap
guards (and their B409 lint), and the streaming SNAP loader.
"""

from __future__ import annotations

import io as _io
import os

import numpy as np
import pytest

from repro.analysis.budget import lint_budget
from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.graph.csr import ADJACENCY_BITMAP_MAX_VERTICES, CSRGraph
from repro.graph.io import iter_edge_chunks, load_snap_edgelist
from repro.pattern import QUERIES, build_plan, get_query
from repro.scale import (
    GRAPH_BACKENDS,
    PartitionedGraph,
    graph_backend_of,
    ingest_edge_chunks,
    ingest_edgelist_file,
    load_csr_store,
    resolve_graph_backend,
    save_csr_store,
    with_backend,
)
from repro.scale.backend import is_memmap_backed
from repro.scale.store import is_csr_store
from tests import oracle


@pytest.fixture(scope="module")
def graphs():
    return oracle.corpus_graphs()


@pytest.fixture(scope="module")
def fixture():
    return oracle.load_fixture()


@pytest.fixture(autouse=True)
def _no_env_backend(monkeypatch):
    monkeypatch.delenv("REPRO_GRAPH_BACKEND", raising=False)


def random_multigraph_edges(rng, n, m, self_loops=True):
    """Messy input: duplicates, both orientations, self-loops."""
    edges = rng.integers(0, n, size=(m, 2))
    if not self_loops:
        edges = edges[edges[:, 0] != edges[:, 1]]
    return edges


class TestStore:
    def test_round_trip_mmap_and_heap(self, tmp_path, graphs):
        g = graphs["sparse"]
        d = save_csr_store(g, tmp_path / "s")
        assert is_csr_store(d)
        for mmap in (True, False):
            back = load_csr_store(d, mmap=mmap)
            assert np.array_equal(back.indptr, g.indptr)
            assert np.array_equal(back.indices, g.indices)
            assert back.num_vertices == g.num_vertices
            assert back.directed == g.directed
            assert is_memmap_backed(back) is mmap

    def test_labels_survive(self, tmp_path, graphs):
        lg = oracle.labeled_pair(graphs["dense"], get_query("q1"))[0]
        back = load_csr_store(save_csr_store(lg, tmp_path / "l"))
        assert back.is_labeled
        assert np.array_equal(back.labels, lg.labels)

    def test_not_a_store(self, tmp_path):
        assert not is_csr_store(tmp_path)
        with pytest.raises((FileNotFoundError, ValueError)):
            load_csr_store(tmp_path)


class TestBackendResolution:
    def test_default_is_memory(self):
        assert resolve_graph_backend() == "memory"
        assert resolve_graph_backend(EngineConfig()) == "memory"

    def test_config_selects(self):
        cfg = EngineConfig(graph_backend="memmap")
        assert resolve_graph_backend(cfg) == "memmap"

    def test_env_wins_over_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "memory")
        assert resolve_graph_backend(EngineConfig(graph_backend="memmap")) \
            == "memory"
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "memmap")
        assert resolve_graph_backend(EngineConfig()) == "memmap"

    def test_bad_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "gpu-direct-storage")
        with pytest.raises(ValueError, match="REPRO_GRAPH_BACKEND"):
            resolve_graph_backend()

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError, match="graph_backend"):
            EngineConfig(graph_backend="nvme")

    def test_with_backend_memoizes_twin(self, graphs):
        g = graphs["sparse"]
        twin = with_backend(g, "memmap")
        assert twin is not g and is_memmap_backed(twin)
        assert with_backend(g, "memmap") is twin  # cached
        assert with_backend(twin, "memmap") is twin  # idempotent
        assert with_backend(g, "memory") is g
        assert graph_backend_of(twin) == "memmap"
        assert graph_backend_of(g) == "memory"

    def test_subclasses_pass_through(self, graphs):
        shard = PartitionedGraph.replicate(graphs["sparse"], 0, 10)
        assert with_backend(shard, "memmap") is shard

    def test_backends_registry(self):
        assert GRAPH_BACKENDS == ("memory", "memmap")


class TestMemmapMatchIdentity:
    """matches AND simulated cycles byte-identical across backends."""

    @pytest.mark.parametrize("gname", ["sparse", "dense"])
    @pytest.mark.parametrize("qname", oracle.ORACLE_QUERIES)
    def test_golden_matrix_unlabeled(self, graphs, fixture, gname, qname):
        g = graphs[gname]
        plan = build_plan(get_query(qname))
        ref = STMatchEngine(g, EngineConfig()).run(plan)
        mm = STMatchEngine(
            g, EngineConfig(graph_backend="memmap")).run(plan)
        assert mm.matches == ref.matches \
            == fixture["counts"][gname]["unlabeled"][qname]
        assert mm.cycles == ref.cycles

    @pytest.mark.parametrize("gname", ["sparse", "dense"])
    @pytest.mark.parametrize("qname", oracle.ORACLE_QUERIES)
    def test_golden_matrix_labeled(self, graphs, fixture, gname, qname):
        lg, lq = oracle.labeled_pair(graphs[gname], QUERIES[qname])
        plan = build_plan(lq)
        ref = STMatchEngine(lg, EngineConfig()).run(plan)
        mm = STMatchEngine(
            lg, EngineConfig(graph_backend="memmap")).run(plan)
        assert mm.matches == ref.matches \
            == fixture["counts"][gname]["labeled"][qname]
        assert mm.cycles == ref.cycles

    def test_env_backend_reaches_engine(self, graphs, monkeypatch):
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "memmap")
        eng = STMatchEngine(graphs["sparse"], EngineConfig())
        assert is_memmap_backed(eng.graph)
        ref = STMatchEngine(graphs["sparse"]).run(get_query("q4"))
        monkeypatch.setenv("REPRO_GRAPH_BACKEND", "memmap")
        assert eng.run(get_query("q4")).matches == ref.matches


class TestChunkedIngest:
    @pytest.mark.parametrize("directed", [False, True])
    @pytest.mark.parametrize("chunk_edges,block_arcs",
                             [(257, 97), (1 << 20, 1 << 22)])
    def test_byte_identity_vs_from_edges(self, tmp_path, directed,
                                         chunk_edges, block_arcs):
        rng = np.random.default_rng(3)
        n, m = 120, 900
        edges = random_multigraph_edges(rng, n, m)
        ref = CSRGraph.from_edges(n, edges, directed=directed)
        got = ingest_edge_chunks(
            edges, n, tmp_path / f"d{directed}-{chunk_edges}",
            directed=directed, chunk_edges=chunk_edges,
            block_arcs=block_arcs)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert got.indptr.dtype == ref.indptr.dtype
        assert got.indices.dtype == ref.indices.dtype
        assert is_memmap_backed(got)

    def test_callable_source_consumed_twice(self, tmp_path):
        rng = np.random.default_rng(9)
        edges = random_multigraph_edges(rng, 40, 200)
        pulls = []

        def source():
            pulls.append(1)
            for lo in range(0, len(edges), 64):
                yield edges[lo:lo + 64]

        got = ingest_edge_chunks(source, 40, tmp_path / "c")
        ref = CSRGraph.from_edges(40, edges)
        assert np.array_equal(got.indices, ref.indices)
        assert len(pulls) >= 2  # counting pass + scatter pass

    def test_labels_and_empty(self, tmp_path):
        labels = np.array([2, 0, 1], dtype=np.int32)
        got = ingest_edge_chunks(
            np.empty((0, 2), dtype=np.int64), 3, tmp_path / "e",
            labels=labels)
        assert got.indices.size == 0 and got.num_vertices == 3
        assert np.array_equal(got.labels, labels)

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="out of range"):
            ingest_edge_chunks(np.array([[0, 5]]), 3, tmp_path / "bad")

    def test_matches_on_ingested_graph(self, tmp_path, graphs, fixture):
        g = graphs["dense"]
        edges = np.asarray(sorted(g.edges()), dtype=np.int64)
        got = ingest_edge_chunks(edges, g.num_vertices, tmp_path / "m",
                                 chunk_edges=17)
        res = STMatchEngine(got).run(get_query("q4"))
        assert res.matches == fixture["counts"]["dense"]["unlabeled"]["q4"]


class TestStreamingLoader:
    EDGELIST = "# comment\n0 1\n1 2\n2 0\n3 0\n\n# more\n2 3\n"

    def test_iter_edge_chunks(self):
        chunks = list(iter_edge_chunks(_io.StringIO(self.EDGELIST),
                                       chunk_edges=2))
        assert all(c.shape[1] == 2 for c in chunks)
        assert sum(len(c) for c in chunks) == 5
        assert len(chunks) >= 2  # actually chunked

    def test_load_snap_chunked_identity(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(self.EDGELIST)
        eager = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0),
                                        (2, 3)])
        got = load_snap_edgelist(path, chunk_edges=2)
        assert np.array_equal(got.indptr, eager.indptr)
        assert np.array_equal(got.indices, eager.indices)

    def test_ingest_edgelist_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(self.EDGELIST)
        got = ingest_edgelist_file(path, tmp_path / "store", chunk_edges=2)
        eager = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (3, 0),
                                        (2, 3)])
        assert got.num_vertices == 4  # n inferred from max vertex id
        assert np.array_equal(got.indices, eager.indices)
        assert is_memmap_backed(got)


class TestBitmapGuards:
    def test_memmap_graph_refuses_bitmap(self, graphs):
        mm = with_backend(graphs["dense"], "memmap")
        with pytest.raises(ValueError, match="B409"):
            mm.adjacency_bitmap(2)

    def test_huge_graph_refuses_bitmap(self):
        n = ADJACENCY_BITMAP_MAX_VERTICES + 1
        g = CSRGraph.from_edges(n, [(0, 1), (1, 2)])
        with pytest.raises(ValueError, match="B409"):
            g.adjacency_bitmap(2)

    def test_small_heap_graph_still_allows(self, graphs):
        g = graphs["dense"]
        rows = g.adjacency_bitmap(2)
        assert rows and all(r.size == g.num_vertices for r in rows.values())

    def test_b409_lint_fires(self, graphs):
        mm = with_backend(graphs["dense"], "memmap")
        plan = build_plan(get_query("q1"))
        cfg = EngineConfig(bitmap_threshold=2)
        rules = [d.rule for d in lint_budget(plan, cfg, mm)]
        assert "B409" in rules

    def test_b406_gated_off_for_memmap(self, graphs):
        mm = with_backend(graphs["dense"], "memmap")
        plan = build_plan(get_query("q1"))
        rules = [d.rule for d in lint_budget(plan, EngineConfig(), mm)]
        assert "B406" not in rules
        # but the heap original may still earn the suggestion
        heap_rules = [d.rule for d in
                      lint_budget(plan, EngineConfig(), graphs["dense"])]
        assert "B409" not in heap_rules

    def test_b409_absent_when_bitmap_viable(self, graphs):
        plan = build_plan(get_query("q1"))
        cfg = EngineConfig(bitmap_threshold=2)
        rules = [d.rule for d in lint_budget(plan, cfg, graphs["dense"])]
        assert "B409" not in rules


class TestShardResidency:
    """A shard of a memory-mapped store reads the mapped base arrays in
    place: no heap copy of the base, a smaller device charge, and the
    same answer as the heap graph."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        # locality-friendly: every edge spans at most 8 ids, so a
        # contiguous shard's 1-hop replica is a thin band of the base
        rng = np.random.default_rng(1000)
        n = 1024
        u = rng.integers(0, n - 1, size=4 * n)
        v = np.minimum(u + rng.integers(1, 9, size=u.size), n - 1)
        d = tmp_path_factory.mktemp("band") / "store"
        ingest_edge_chunks(np.stack([u, v], axis=1), n, d)
        return d

    def test_replica_keeps_the_store_memmaps(self, store):
        g = load_csr_store(store, mmap=True)
        shard = PartitionedGraph.replicate(g, 0, g.num_vertices // 4)
        assert isinstance(g.indptr, np.memmap) and isinstance(g.indices, np.memmap)
        assert shard.indptr is g.indptr
        assert shard.indices is g.indices
        assert shard.device_graph_bytes() < g.device_graph_bytes()

    def test_root_slice_run_matches_heap(self, store):
        runs = []
        for mmap in (True, False):
            g = load_csr_store(store, mmap=mmap)
            shard = PartitionedGraph.replicate(g, 0, g.num_vertices // 4)
            res = STMatchEngine(shard, EngineConfig()).run(
                get_query("q1"), root_vertices=(0, 128))
            assert is_memmap_backed(g) is mmap
            runs.append((res.status, res.matches, res.cycles))
        assert runs[0] == runs[1]
        assert runs[0][0] == "ok" and runs[0][1] > 0


class TestDeviceGraphBytes:
    def test_full_graph_charges_all_arrays(self, graphs):
        g = graphs["sparse"]
        want = g.indices.nbytes + g.indptr.nbytes
        if g.is_labeled:
            want += g.labels.nbytes
        assert g.device_graph_bytes() == want

    def test_memmap_twin_same_charge(self, graphs):
        g = graphs["sparse"]
        assert with_backend(g, "memmap").device_graph_bytes() \
            == g.device_graph_bytes()
