"""Unit tests for synthetic graph generators and datasets."""

import hashlib

import numpy as np
import pytest

from repro.graph import (
    chung_lu,
    compute_stats,
    dataset_names,
    degree_histogram,
    erdos_renyi,
    load_dataset,
    powerlaw_cluster,
    random_regular_ish,
    rmat,
)
from tests.oracle import powerlaw_cluster_reference


class TestGenerators:
    def test_erdos_renyi_determinism(self):
        a = erdos_renyi(50, 0.1, seed=1)
        b = erdos_renyi(50, 0.1, seed=1)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)

    def test_erdos_renyi_seed_changes_graph(self):
        a = erdos_renyi(50, 0.1, seed=1)
        b = erdos_renyi(50, 0.1, seed=2)
        assert not (np.array_equal(a.indices, b.indices) and a.num_edges == b.num_edges)

    def test_erdos_renyi_density(self):
        g = erdos_renyi(100, 0.2, seed=0)
        expected = 0.2 * 100 * 99 / 2
        assert 0.7 * expected < g.num_edges < 1.3 * expected

    def test_erdos_renyi_p_bounds(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)

    def test_rmat_shape(self):
        g = rmat(7, edge_factor=4, seed=3)
        assert g.num_vertices == 128
        assert g.num_edges > 100
        # R-MAT with Graph500 params is skewed
        assert g.max_degree() > 4 * g.median_degree()

    def test_rmat_bad_params(self):
        with pytest.raises(ValueError):
            rmat(5, a=0.5, b=0.4, c=0.3)

    def test_rmat_rejects_negative_quadrant(self):
        # a + b + c <= 1 holds here; the negative b is the fault
        with pytest.raises(ValueError, match="non-negative"):
            rmat(5, a=0.9, b=-0.1, c=0.1)

    def test_chung_lu_power_law(self):
        g = chung_lu(300, avg_degree=6.0, exponent=2.3, seed=5)
        deg = g.degree()
        assert deg.max() > 3 * np.median(deg)

    def test_chung_lu_rejects_exponent_at_most_one(self):
        with pytest.raises(ValueError, match="exponent"):
            chung_lu(50, exponent=1.0)

    def test_powerlaw_cluster_validates(self):
        g = powerlaw_cluster(120, m=4, p_triangle=0.5, seed=7)
        g.validate()
        assert g.num_vertices == 120
        assert g.num_edges >= 4 * (120 - 5)

    def test_powerlaw_cluster_bad_m(self):
        with pytest.raises(ValueError):
            powerlaw_cluster(10, m=10)

    @pytest.mark.parametrize("p", [-0.1, 1.5])
    def test_powerlaw_cluster_rejects_p_triangle_out_of_range(self, p):
        with pytest.raises(ValueError, match="p_triangle"):
            powerlaw_cluster(20, m=2, p_triangle=p)

    def test_powerlaw_cluster_has_triangles(self):
        g = powerlaw_cluster(100, m=3, p_triangle=0.9, seed=1)
        # count triangles crudely via networkx
        import networkx as nx

        assert sum(nx.triangles(g.to_networkx()).values()) > 0

    def test_random_regular_ish_degrees(self):
        g = random_regular_ish(100, 6, seed=2)
        deg = g.degree()
        # near-regular: small spread
        assert deg.max() - deg.min() <= 6

    def test_random_regular_degree_bound(self):
        with pytest.raises(ValueError):
            random_regular_ish(5, 5)

    def test_random_regular_rejects_odd_stub_count(self):
        with pytest.raises(ValueError, match="even"):
            random_regular_ish(5, 3)


def _digest(g) -> str:
    h = hashlib.sha256()
    h.update(g.indptr.tobytes())
    h.update(g.indices.tobytes())
    return h.hexdigest()


#: SHA-256 of ``indptr.tobytes() + indices.tobytes()`` for every
#: registered stand-in and both perf-harness graphs.  A changed digest
#: means a changed graph, and with it every count pinned on it (the
#: golden tables in benchmarks/results, benchmarks/perf/expected.json).
#: Like expected.json these are CPython 3.11 / NumPy 2.x facts: the
#: NumPy RNG streams and ``powerlaw_cluster``'s set iteration order are
#: what they pin.
GRAPH_DIGESTS = {
    ("wiki_vote", "tiny"): "7bf207b39fc4e7b5bfb7e80a492ee6414fce0c1424ec9785af166457c679c65a",
    ("wiki_vote", "small"): "e89dae4c74301a1645bbe71e94c55b1e844ad9d350996b7d30e92a1b2e6d3081",
    ("enron", "tiny"): "3528f04269cf8b2cc8ccddf1e72dae6b251469181a3db63f59de25147ffc01a2",
    ("enron", "small"): "2b0df242b69e1ba407ffc9123da3d8fac844b052829b500ef95387eef4efcb7f",
    ("youtube", "tiny"): "d8e575eb33e6ce499dc2ae235ae7baa245d65698e8d56c529f6ac607245d8ed9",
    ("youtube", "small"): "411cf586d71ea9905b2b8e42fe587184eaedce21397e7bfefccacdc4bdb6dc6d",
    ("mico", "tiny"): "addb3f2ec851cc0e12b2e16bfc1757949103a6729eba2d9c28db8f1d3659c695",
    ("mico", "small"): "476ada639ab7fecaa5f64b254a80069638952adb7de4fc9ab74f8a9371a7a852",
    ("livejournal", "tiny"): "7fb1879714ab21e02dd16f65a78240e738ea10d81b141ae8d6084220ac88e612",
    ("livejournal", "small"): "0f0850e8fa7dc40caf7986cf2673d7d1b61f75acfccd6f7f0a57ded7b5d8a92c",
    ("orkut", "tiny"): "c31d9c1a173187d9e0b5591da050cab2df498635427df55b70b46f27107eef82",
    ("orkut", "small"): "3d10dd9fdd3947c06ff737348dc8ef084c2684b06265b973529cb5368e8d8a95",
    ("friendster", "tiny"): "ac4b2ba410dd87792cd735aa3415f83ead58151006654ac7b64798e9a6239a70",
    ("friendster", "small"): "9f0547b8863364ace024e324c9e4926c04b63d3e6c392f37e3dd640eb4e5f329",
}

#: benchmarks/perf's ``dense`` and ``edits`` graphs, as powerlaw_cluster
#: ``(n, m, p_triangle, seed)``
PERF_GRAPH_DIGESTS = {
    (400, 24, 0.5, 41): "5a4f95153ee526124b400c0077fb321b6933b1eec57d71d2e6d5ed8d0a9b6aff",
    (72, 4, 0.3, 23): "7b6a8b252de324285ebb59e432c63d9a18d8d8e54377bd460c2de830ddc76363",
}


def _identity_cells(count: int = 32) -> list[tuple[int, int, float, int]]:
    """Seeded small ``(n, m, p_triangle, seed)`` cells, including the
    ``p_triangle`` edges 0 and 1 and the smallest legal ``n``."""
    rng = np.random.default_rng(2026)
    cells = [(2, 1, 0.5, 0), (12, 11, 1.0, 3), (40, 3, 0.0, 5), (60, 5, 1.0, 6)]
    while len(cells) < count:
        m = int(rng.integers(1, 7))
        n = int(rng.integers(m + 1, 121))
        p = float(rng.choice([0.0, 1.0, round(float(rng.random()), 3)]))
        cells.append((n, m, p, int(rng.integers(1000))))
    return cells


class TestGeneratorIdentity:
    @pytest.mark.parametrize("name,scale", sorted(GRAPH_DIGESTS))
    def test_dataset_digest(self, name, scale):
        assert _digest(load_dataset(name, scale)) == GRAPH_DIGESTS[name, scale]

    @pytest.mark.parametrize("n,m,p,seed", sorted(PERF_GRAPH_DIGESTS))
    def test_perf_graph_digest(self, n, m, p, seed):
        assert _digest(powerlaw_cluster(n, m, p, seed)) == PERF_GRAPH_DIGESTS[n, m, p, seed]

    def test_every_dataset_is_pinned(self):
        assert {name for name, _ in GRAPH_DIGESTS} == set(dataset_names())

    @pytest.mark.parametrize("n,m,p,seed", _identity_cells())
    def test_powerlaw_cluster_matches_reference(self, n, m, p, seed):
        got = powerlaw_cluster(n, m, p, seed)
        want = powerlaw_cluster_reference(n, m, p, seed)
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)


class TestDatasets:
    def test_registry_names(self):
        names = dataset_names()
        for expected in ["wiki_vote", "enron", "youtube", "mico",
                         "livejournal", "orkut", "friendster"]:
            assert expected in names

    def test_tier_filter(self):
        assert "orkut" in dataset_names(tier="large")
        assert "wiki_vote" not in dataset_names(tier="large")

    def test_load_is_cached(self):
        a = load_dataset("wiki_vote", "tiny")
        b = load_dataset("wiki_vote", "tiny")
        assert a is b

    def test_mico_is_labeled(self):
        g = load_dataset("mico", "tiny")
        assert g.is_labeled
        assert g.num_labels == 10

    def test_labeled_override(self):
        g = load_dataset("wiki_vote", "tiny", labeled=True)
        assert g.is_labeled
        g2 = load_dataset("mico", "tiny", labeled=False)
        assert not g2.is_labeled

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            load_dataset("wiki_vote", scale="huge")

    def test_median_degree_below_warp_width(self):
        # Table I property the loop-unrolling motivation relies on
        for name in ["wiki_vote", "enron", "youtube"]:
            g = load_dataset(name, "tiny")
            assert g.median_degree() < 32


class TestStats:
    def test_compute_stats_fields(self):
        g = load_dataset("wiki_vote", "tiny")
        s = compute_stats(g)
        assert s.num_vertices == g.num_vertices
        assert s.num_edges == g.num_edges
        assert s.max_degree == g.max_degree()
        assert 0.0 <= s.frac_degree_over <= 1.0

    def test_degree_cap_fraction(self):
        g = erdos_renyi(50, 0.5, seed=0)
        s = compute_stats(g, degree_cap=1)
        assert s.frac_degree_over > 0.9

    def test_degree_histogram_sums_to_n(self):
        g = erdos_renyi(60, 0.1, seed=4)
        h = degree_histogram(g)
        assert h.sum() == g.num_vertices

    def test_stats_row_format(self):
        s = compute_stats(load_dataset("enron", "tiny"))
        row = s.row()
        assert row[0] == "enron"
        assert row[-1].endswith("%")
