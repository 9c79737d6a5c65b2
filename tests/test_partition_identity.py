"""1-hop-replicated partitioned execution: exactness + X512 protocol.

The partition tier's contract is *exactly-once counting*: every match
is rooted at exactly one vertex (its plan-order root), every root is
owned by exactly one shard, therefore the sum of shard counts equals
the whole-graph count — no dedup pass, no double counting.  This suite
pins that identity over the golden matrix (q1–q13 × {unlabeled,
labeled} × shard counts {2, 3, 4}), over uneven hand-cut ranges, over
a boundary-heavy powerlaw graph, through ``run_partitioned`` /
``run_multi_gpu`` / ``run_distributed`` / the process executor and
device-fail recovery, and mutation-tests analyzer rule X512 the same
way X506–X511 are: crafted protocol logs with overlapping claims,
gapped covers and malformed bounds must each trip it, and a clean
partitioned run must not.
"""

from __future__ import annotations


import networkx as nx
import numpy as np
import pytest

from repro.analysis.races.events import ProtocolLog
from repro.analysis.races.hb import check_protocol
from repro.core.config import EngineConfig
from repro.core.counters import RunStatus
from repro.core.distributed import run_distributed
from repro.core.engine import STMatchEngine
from repro.core.multi_gpu import run_multi_gpu
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.graph.csr import CSRGraph
from repro.parallel import shutdown_pools
from repro.pattern import QUERIES, build_plan, get_query
from repro.scale import PartitionedGraph, VertexPartition, memmap_twin
from tests import oracle

QUICK_QUERIES = ["q1", "q4", "q6", "q13"]


@pytest.fixture(scope="module", autouse=True)
def _drop_pools():
    yield
    shutdown_pools()


@pytest.fixture(scope="module")
def graphs():
    return oracle.corpus_graphs()


@pytest.fixture(scope="module")
def fixture():
    return oracle.load_fixture()


def x512_findings(log):
    return [d for d in check_protocol(log) if d.rule == "X512"]


class TestVertexPartition:
    @pytest.mark.parametrize("parts", [1, 2, 3, 4, 7])
    def test_balanced_covers(self, graphs, parts):
        for g in graphs.values():
            p = VertexPartition.balanced(g, parts)
            p.verify(g.num_vertices)
            assert p.num_parts == parts
            assert p.bounds[0] == 0 and p.bounds[-1] == g.num_vertices

    def test_balanced_is_edge_balanced(self, graphs):
        g = graphs["sparse"]
        p = VertexPartition.balanced(g, 4)
        arcs = [int(g.indptr[hi] - g.indptr[lo])
                for lo, hi in (p.range_of(i) for i in range(4))]
        # each shard within 2x of the ideal arc share (powerlaw skew
        # permitting) — a vertex-balanced cut would fail this on hubs
        ideal = g.indptr[-1] / 4
        assert max(arcs) <= 2 * ideal + g.max_degree()

    def test_verify_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            VertexPartition(bounds=(0, 5, 3, 10)).verify(10)
        with pytest.raises(ValueError):
            VertexPartition(bounds=(1, 10)).verify(10)
        with pytest.raises(ValueError):
            VertexPartition(bounds=(0, 5)).verify(10)

    def test_emit_cover(self, graphs):
        g = graphs["dense"]
        log = ProtocolLog()
        p = VertexPartition.balanced(g, 3)
        p.emit_cover(log, g.num_vertices)
        ev = log.by_kind("partition_cover")
        assert len(ev) == 1 and ev[0].data["n"] == g.num_vertices


class TestPartitionedGraph:
    def test_adjacency_equals_base(self, graphs):
        g = graphs["sparse"]
        p = VertexPartition.balanced(g, 4)
        for i in range(4):
            shard = PartitionedGraph.replicate(g, *p.range_of(i))
            for v in range(g.num_vertices):
                assert np.array_equal(shard.neighbors(v), g.neighbors(v))
            vs = np.arange(g.num_vertices, dtype=np.int64)
            sdata, soff = shard.neighbors_batch(vs)
            gdata, goff = g.neighbors_batch(vs)
            assert np.array_equal(sdata, gdata)
            assert np.array_equal(soff, goff)

    def test_replica_smaller_than_base(self, graphs):
        g = graphs["sparse"]
        shard = PartitionedGraph.replicate(g, *VertexPartition.balanced(
            g, 4).range_of(0))
        assert shard.device_graph_bytes() < g.device_graph_bytes()
        assert shard.local_num_vertices < g.num_vertices
        assert shard.replication_ratio() >= 1.0

    def test_replicate_memoized(self, graphs):
        g = graphs["dense"]
        a = PartitionedGraph.replicate(g, 0, 10)
        assert PartitionedGraph.replicate(g, 0, 10) is a
        assert PartitionedGraph.replicate(g, 0, 11) is not a

    def test_labels_keep_the_shard_view(self, graphs):
        g = graphs["sparse"]
        shard = PartitionedGraph.replicate(g, 0, 3)
        labels = np.arange(g.num_vertices, dtype=np.int32) % 3
        labeled = shard.with_labels(labels)
        assert isinstance(labeled, PartitionedGraph)
        assert labeled.owned_range == (0, 3)
        assert labeled.labels.tolist() == labels.tolist() == labeled.base.labels.tolist()
        assert labeled.local_num_vertices == shard.local_num_vertices
        far = int(np.flatnonzero(labeled._local_row < 0)[0])
        before = labeled.fallback_rows
        assert labeled.neighbors(far).tolist() == g.neighbors(far).tolist()
        assert labeled.fallback_rows == before + 1
        plain = labeled.without_labels()
        assert isinstance(plain, PartitionedGraph) and plain.labels is None
        assert plain.owned_range == (0, 3)

    def test_directed_in_reads_go_through_the_replica(self):
        ring = [(i, (i + 1) % 6) for i in range(6)]
        shard = PartitionedGraph.replicate(CSRGraph.from_edges(6, ring, directed=True), 0, 2)
        rev = shard.reversed_view()
        assert isinstance(rev, PartitionedGraph) and rev.owned_range == (0, 2)
        assert shard.reversed_view() is rev
        assert rev.neighbors(1).tolist() == [0]  # an owned vertex's in-row: resident
        assert shard.fallback_rows == 0
        assert shard.in_neighbors(4).tolist() == [3]  # outside the replica
        assert shard.fallback_rows == 1
        vals, _ = shard.in_neighbors_batch(np.array([0, 3, 4]))
        assert vals.tolist() == [5, 2, 3]
        assert shard.fallback_rows == rev.fallback_rows == 3
        undirected = PartitionedGraph.replicate(CSRGraph.from_edges(6, ring), 0, 2)
        assert undirected.reversed_view() is undirected

    def test_directed_shard_charges_both_replicas(self):
        """A directed shard's device charge is its out-row plus its
        in-row replica, before and after an in-read builds the latter."""
        rng = np.random.default_rng(0)
        g = CSRGraph.from_edges(2000, rng.integers(0, 2000, size=(8000, 2)), directed=True)
        shard = PartitionedGraph.replicate(g, 0, 100)
        before = shard.device_graph_bytes()
        rev = shard.reversed_view()
        want = sum(int(v._local_indptr.nbytes + v._local_indices.nbytes)
                   for v in (shard, rev))
        assert before == shard.device_graph_bytes() == want
        assert rev._local_indices.size > 0

    def test_no_nested_partitioning(self, graphs):
        shard = PartitionedGraph.replicate(graphs["dense"], 0, 10)
        with pytest.raises(TypeError):
            PartitionedGraph.replicate(shard, 0, 5)

    def test_bad_range_rejected(self, graphs):
        g = graphs["dense"]
        with pytest.raises(ValueError):
            PartitionedGraph.replicate(g, 7, 5)
        with pytest.raises(ValueError):
            PartitionedGraph.replicate(g, -1, 5)
        with pytest.raises(ValueError):
            PartitionedGraph.replicate(g, 0, g.num_vertices + 1)

    def test_empty_range_is_valid_degenerate_shard(self, graphs):
        """balanced() collapses surplus shards to empty ranges; an
        empty shard owns nothing and counts nothing."""
        g = graphs["dense"]
        shard = PartitionedGraph.replicate(g, 5, 5)
        assert shard.local_num_vertices == 0
        res = STMatchEngine(shard).run(get_query("q1"),
                                       root_vertices=(5, 5))
        assert res.matches == 0


class TestRangeIdentity:
    """Partitioned counts equal whole-graph counts equal golden."""

    @pytest.mark.parametrize("gname", ["sparse", "dense"])
    @pytest.mark.parametrize("qname", oracle.ORACLE_QUERIES)
    def test_three_shards_full_matrix(self, graphs, fixture, gname, qname):
        g = graphs[gname]
        want = fixture["counts"][gname]["unlabeled"][qname]
        log = ProtocolLog()
        res = run_multi_gpu(g, get_query(qname), num_devices=3,
                            config=EngineConfig(partition_mode="range"),
                            protocol_log=log)
        assert res.status == "ok" and res.matches == want
        assert not x512_findings(log)
        assert len(log.by_kind("partition_cover")) == 1
        assert len(log.by_kind("root_claim")) == 3

    @pytest.mark.parametrize("gname", ["sparse", "dense"])
    @pytest.mark.parametrize("qname", oracle.ORACLE_QUERIES)
    def test_three_shards_labeled(self, graphs, fixture, gname, qname):
        lg, lq = oracle.labeled_pair(graphs[gname], QUERIES[qname])
        want = fixture["counts"][gname]["labeled"][qname]
        res = run_multi_gpu(lg, lq, num_devices=3,
                            config=EngineConfig(partition_mode="range"))
        assert res.matches == want

    @pytest.mark.parametrize("shards", [2, 4])
    @pytest.mark.parametrize("qname", QUICK_QUERIES)
    def test_other_shard_counts(self, graphs, fixture, shards, qname):
        for gname, g in graphs.items():
            want = fixture["counts"][gname]["unlabeled"][qname]
            res = run_multi_gpu(g, get_query(qname), num_devices=shards,
                                config=EngineConfig(partition_mode="range"))
            assert res.matches == want, (gname, qname, shards)

    def test_uneven_hand_cut_ranges(self, graphs, fixture):
        """Sum over arbitrary uneven ranges == whole count."""
        g = graphs["sparse"]
        bounds = (0, 1, 7, 40, g.num_vertices)  # deliberately lopsided
        VertexPartition(bounds=bounds).verify(g.num_vertices)
        plan = build_plan(get_query("q4"))
        total = 0
        for lo, hi in zip(bounds, bounds[1:]):
            shard = PartitionedGraph.replicate(g, lo, hi)
            total += STMatchEngine(shard).run(
                plan, root_vertices=(lo, hi)).matches
        assert total == fixture["counts"]["sparse"]["unlabeled"]["q4"]

    def test_boundary_heavy_powerlaw(self):
        """Dense powerlaw: nearly every shard replicates most of the
        graph as boundary — ownership filtering still counts once."""
        g = CSRGraph.from_networkx(
            nx.powerlaw_cluster_graph(60, 6, 0.8, seed=13), name="heavy")
        want = STMatchEngine(g).run(get_query("q4")).matches
        log = ProtocolLog()
        res = run_multi_gpu(g, get_query("q4"), num_devices=4,
                            config=EngineConfig(partition_mode="range"),
                            protocol_log=log)
        assert res.matches == want
        assert not x512_findings(log)
        shard = PartitionedGraph.replicate(
            g, *VertexPartition.balanced(g, 4).range_of(1))
        assert shard.replication_ratio() > 1.5  # genuinely boundary-heavy

    def test_run_partitioned_range_mode(self, graphs, fixture):
        g = graphs["dense"]
        eng = STMatchEngine(g, EngineConfig(partition_mode="range"))
        log = ProtocolLog()
        res = eng.run_partitioned(get_query("q6"), num_partitions=3,
                                  protocol_log=log)
        assert res.matches == fixture["counts"]["dense"]["unlabeled"]["q6"]
        assert not x512_findings(log)

    def test_replicate_mode_unchanged(self, graphs, fixture):
        """Default round-robin partitioning is untouched by this tier."""
        g = graphs["dense"]
        res = run_multi_gpu(g, get_query("q6"), num_devices=3)
        assert res.matches == fixture["counts"]["dense"]["unlabeled"]["q6"]

    def test_memmap_plus_range(self, graphs, fixture):
        """Both tiers compose: range shards over a memory-mapped base
        count and charge exactly as over the heap graph."""
        g = graphs["sparse"]
        cfg = EngineConfig(partition_mode="range")
        heap, mapped = (run_multi_gpu(base, get_query("q1"), num_devices=3, config=cfg)
                        for base in (g, memmap_twin(g)))
        assert mapped.matches == heap.matches \
            == fixture["counts"]["sparse"]["unlabeled"]["q1"]
        assert [r.cycles for r in mapped.per_device] == [r.cycles for r in heap.per_device]


class TestRangeAcrossDrivers:
    def test_process_executor_identity(self, graphs, fixture):
        g = graphs["sparse"]
        cfg = EngineConfig(partition_mode="range", executor="process",
                           num_workers=2)
        try:
            res = run_multi_gpu(g, get_query("q4"), num_devices=2,
                                config=cfg)
        finally:
            shutdown_pools()
        assert res.matches == fixture["counts"]["sparse"]["unlabeled"]["q4"]

    def test_distributed_identity(self, graphs, fixture):
        g = graphs["sparse"]
        res = run_distributed(g, get_query("q4"), num_machines=2,
                              gpus_per_machine=2,
                              config=EngineConfig(partition_mode="range"))
        assert res.matches == fixture["counts"]["sparse"]["unlabeled"]["q4"]

    def test_device_fail_recovery(self, graphs, fixture):
        """A dead shard's range is re-hosted; the total stays exact and
        the re-claim (same key, same range) does not trip X512."""
        g = graphs["sparse"]
        log = ProtocolLog()
        plan = FaultPlan(events=tuple(
            FaultEvent(FaultKind.DEVICE_FAIL, device=1, attempt=a,
                       at_cycle=0.0)
            for a in range(4)  # exhaust retries: force a re-queue
        ))
        res = run_multi_gpu(g, get_query("q4"), num_devices=3,
                            config=EngineConfig(partition_mode="range"),
                            fault_plan=plan, max_retries=3,
                            protocol_log=log)
        assert res.status == RunStatus.RECOVERED
        assert res.matches == fixture["counts"]["sparse"]["unlabeled"]["q4"]
        assert not x512_findings(log)
        assert len(log.by_kind("root_claim")) >= 4  # 3 + the re-claim


class TestX512Mutation:
    """The rule actually fires — crafted violations, like X506–X511."""

    N = 100

    def cover(self, log, bounds=(0, 50, 100)):
        log.emit("partition_cover", bounds=list(bounds), n=self.N)

    def test_overlapping_claims_trip(self):
        log = ProtocolLog()
        self.cover(log)
        log.emit("root_claim", key=(0, 2), lo=0, hi=60, n=self.N)
        log.emit("root_claim", key=(1, 2), lo=50, hi=100, n=self.N)
        found = x512_findings(log)
        assert found and "overlap" in found[0].message

    def test_gap_trips(self):
        log = ProtocolLog()
        self.cover(log)
        log.emit("root_claim", key=(0, 2), lo=0, hi=40, n=self.N)
        log.emit("root_claim", key=(1, 2), lo=50, hi=100, n=self.N)
        found = x512_findings(log)
        assert found and "40" in found[0].message

    def test_missing_shard_is_a_gap(self):
        log = ProtocolLog()
        self.cover(log)
        log.emit("root_claim", key=(0, 2), lo=0, hi=50, n=self.N)
        assert x512_findings(log)

    def test_malformed_cover_trips(self):
        log = ProtocolLog()
        log.emit("partition_cover", bounds=[0, 60, 50, 100], n=self.N)
        assert x512_findings(log)
        log2 = ProtocolLog()
        log2.emit("partition_cover", bounds=[5, 100], n=self.N)
        assert x512_findings(log2)

    def test_same_key_reclaim_is_legitimate(self):
        log = ProtocolLog()
        self.cover(log)
        log.emit("root_claim", key=(0, 2), lo=0, hi=50, n=self.N)
        log.emit("root_claim", key=(1, 2), lo=50, hi=100, n=self.N)
        log.emit("root_claim", key=(1, 2), lo=50, hi=100, n=self.N)  # requeue
        assert not x512_findings(log)

    def test_same_key_different_range_trips(self):
        log = ProtocolLog()
        self.cover(log)
        log.emit("root_claim", key=(0, 2), lo=0, hi=50, n=self.N)
        log.emit("root_claim", key=(0, 2), lo=0, hi=60, n=self.N)
        log.emit("root_claim", key=(1, 2), lo=50, hi=100, n=self.N)
        assert x512_findings(log)

    def test_clean_log_passes(self):
        log = ProtocolLog()
        self.cover(log, bounds=(0, 30, 50, 100))
        for i, (lo, hi) in enumerate([(0, 30), (30, 50), (50, 100)]):
            log.emit("root_claim", key=(i, 3), lo=lo, hi=hi, n=self.N)
        assert not x512_findings(log)

    def test_broken_ownership_filter_end_to_end(self, graphs, fixture):
        """Simulate the bug X512 exists for: two shards both own a
        vertex range.  The honest claims trip the checker AND the sum
        double counts — the rule fires exactly when counts go wrong."""
        g = graphs["sparse"]
        plan = build_plan(get_query("q4"))
        n = g.num_vertices
        bounds = (0, 24, n)
        ranges = [(0, 30), (24, n)]  # overlap [24, 30): the "bug"
        log = ProtocolLog()
        log.emit("partition_cover", bounds=list(bounds), n=n)
        total = 0
        for i, (lo, hi) in enumerate(ranges):
            log.emit("root_claim", key=(i, 2), lo=lo, hi=hi, n=n)
            shard = PartitionedGraph.replicate(g, lo, hi)
            total += STMatchEngine(shard).run(
                plan, root_vertices=(lo, hi)).matches
        want = fixture["counts"]["sparse"]["unlabeled"]["q4"]
        assert total > want  # matches rooted in [24, 30) counted twice
        assert x512_findings(log)  # and the analyzer says why
