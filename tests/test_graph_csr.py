"""Unit tests for CSR graph storage."""

import numpy as np
import pytest

from repro.graph import CSRGraph


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_vertices == 4
        assert g.num_edges == 3
        assert list(g.neighbors(1)) == [0, 2]

    def test_from_edges_symmetric(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (2, 2)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1
        assert list(g.neighbors(0)) == [1]

    def test_empty_graph(self):
        g = CSRGraph.from_edges(5, [])
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.neighbors(0).size == 0

    def test_zero_vertex_graph(self):
        g = CSRGraph.from_edges(0, [])
        assert g.num_vertices == 0
        assert g.max_degree() == 0

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [(0, 5)])

    def test_directed_graph_one_direction(self):
        g = CSRGraph.from_edges(3, [(0, 1)], directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.num_edges == 1

    def test_bad_edge_shape_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, np.array([[0, 1, 2]]))


class TestInvariants:
    def test_neighbor_lists_sorted_unique(self):
        g = CSRGraph.from_edges(6, [(5, 0), (3, 0), (0, 1), (0, 4)])
        nbrs = g.neighbors(0)
        assert list(nbrs) == sorted(set(nbrs.tolist()))

    def test_validate_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2]), indices=np.array([1], dtype=np.int32))

    def test_validate_rejects_unsorted_neighbors(self):
        with pytest.raises(ValueError):
            CSRGraph(indptr=np.array([0, 2, 2]), indices=np.array([1, 0], dtype=np.int32))

    def test_validate_names_unsorted_middle_row(self):
        # rows 0..3 = [1, 3], [], [3, 0, 2], [1]: row starts are exempt
        # from the rising check, so only vertex 2's 3 -> 0 step fails
        with pytest.raises(ValueError, match="vertex 2 is not sorted"):
            CSRGraph(indptr=np.array([0, 2, 2, 5, 6]),
                     indices=np.array([1, 3, 3, 0, 2, 1], dtype=np.int32))

    def test_validate_names_duplicate_in_last_row(self):
        with pytest.raises(ValueError, match="vertex 3 is not sorted"):
            CSRGraph(indptr=np.array([0, 1, 2, 2, 4]),
                     indices=np.array([3, 3, 0, 0], dtype=np.int32))

    def test_validate_accepts_empty_rows(self):
        # descending steps across row boundaries, with empty rows between
        g = CSRGraph(indptr=np.array([0, 0, 2, 2, 2, 3, 3]),
                     indices=np.array([3, 5, 1], dtype=np.int32))
        assert g.degree().tolist() == [0, 2, 0, 0, 1, 0]
        CSRGraph(indptr=np.zeros(4, dtype=np.int64), indices=np.empty(0, dtype=np.int32))

    def test_from_edges_indptr_counts_rows(self):
        g = CSRGraph.from_edges(6, [(0, 4), (4, 5), (2, 4)])
        assert g.indptr.dtype == np.int64
        assert g.indptr.tolist() == [0, 1, 1, 2, 2, 5, 6]

    def test_validate_rejects_label_shape(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [(0, 1)], labels=[1, 2])

    def test_validate_rejects_negative_labels(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], labels=[-1, 0])


class TestAccessors:
    @pytest.fixture()
    def path4(self):
        return CSRGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])

    def test_degree_scalar_and_vector(self, path4):
        assert path4.degree(0) == 1
        assert path4.degree(1) == 2
        assert list(path4.degree()) == [1, 2, 2, 1]

    def test_max_median_degree(self, path4):
        assert path4.max_degree() == 2
        assert path4.median_degree() == 1.5

    def test_edges_iteration_canonical(self, path4):
        assert list(path4.edges()) == [(0, 1), (1, 2), (2, 3)]

    def test_has_edge_missing(self, path4):
        assert not path4.has_edge(0, 3)
        assert not path4.has_edge(0, 2)

    def test_labels_roundtrip(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], labels=[2, 0, 1])
        assert g.is_labeled
        assert g.num_labels == 3
        assert g.label_of(0) == 2
        assert list(g.vertices_with_label(1)) == [2]

    def test_unlabeled_accessors(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        assert not g.is_labeled
        assert g.num_labels == 0
        assert g.vertices_with_label(0).size == 0
        with pytest.raises(ValueError):
            g.label_of(0)

    def test_with_without_labels(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        gl = g.with_labels([1, 1])
        assert gl.is_labeled and not g.is_labeled
        assert not gl.without_labels().is_labeled


class TestNetworkxBridge:
    def test_roundtrip(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)], labels=[0, 1, 2, 1, 0])
        nx_g = g.to_networkx()
        back = CSRGraph.from_networkx(nx_g, label_attr="label")
        assert back.num_vertices == g.num_vertices
        assert sorted(back.edges()) == sorted(g.edges())
        assert np.array_equal(back.labels, g.labels)

    def test_from_networkx_relabels_sparse_ids(self):
        import networkx as nx

        h = nx.Graph()
        h.add_edge(10, 20)
        g = CSRGraph.from_networkx(h)
        assert g.num_vertices == 2
        assert g.has_edge(0, 1)


class TestBatchedAccessors:
    def _graph(self):
        return CSRGraph.from_edges(
            6, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (4, 5)]
        )

    def test_neighbors_batch_equals_per_vertex_slices(self):
        g = self._graph()
        vs = np.array([3, 0, 4, 0])
        vals, offs = g.neighbors_batch(vs)
        assert vals.dtype == g.indices.dtype
        assert offs.tolist()[0] == 0
        for i, v in enumerate(vs):
            seg = vals[offs[i]: offs[i + 1]]
            assert seg.tolist() == g.neighbors(int(v)).tolist()

    def test_neighbors_batch_empty_batch_and_isolated(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        vals, offs = g.neighbors_batch(np.array([2, 2]))
        assert vals.size == 0
        assert offs.tolist() == [0, 0, 0]
        vals, offs = g.neighbors_batch(np.array([], dtype=np.int64))
        assert vals.size == 0 and offs.tolist() == [0]

    def test_in_neighbors_batch_directed(self):
        g = CSRGraph.from_edges(3, [(0, 1), (2, 1)], directed=True)
        vals, offs = g.in_neighbors_batch(np.array([1, 0]))
        assert vals[offs[0]: offs[1]].tolist() == [0, 2]
        assert vals[offs[1]: offs[2]].tolist() == []

    def test_directed_graph_charges_its_in_rows(self):
        # the reversed view stays resident once built: the charge counts
        # it whether or not an in-read has built it yet
        rng = np.random.default_rng(0)
        g = CSRGraph.from_edges(2000, rng.integers(0, 2000, size=(8000, 2)), directed=True)
        before = g.device_graph_bytes()
        rev = g.reversed_view()
        want = sum(int(v.indptr.nbytes + v.indices.nbytes) for v in (g, rev))
        assert before == g.device_graph_bytes() == want
        assert rev.indices.size > 0
        undirected = self._graph()
        assert undirected.device_graph_bytes() == int(
            undirected.indptr.nbytes + undirected.indices.nbytes)

    def test_degree_is_cached_and_consistent(self):
        g = self._graph()
        deg = g.degree()
        assert deg is g.degree()  # cached array, not recomputed
        assert deg.tolist() == [np.asarray(g.neighbors(v)).size for v in range(6)]
        assert g.degree(0) == 3
        assert g.degree(np.array([0, 4])).tolist() == [3, 1]

    def test_self_loop_mask(self):
        # row 1 lists itself; from_edges would drop the loop
        g = CSRGraph(indptr=np.array([0, 1, 3, 4]), indices=np.array([1, 0, 1, 0]))
        mask = g.self_loop_mask()
        assert mask.tolist() == [False, True, False]
        assert g.self_loop_mask() is mask  # cached
        assert not self._graph().self_loop_mask().any()
