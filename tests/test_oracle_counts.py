"""Golden-count oracle: engine counts == brute-force NetworkX counts.

Every other correctness test in the suite is *differential* (walk vs
per-slot reference, observed vs unobserved, faulted vs fault-free) — a
systematically wrong engine could pass them all.  This file pins the
engine to ground truth: the checked-in fixture
``tests/fixtures/golden_counts.json`` holds exact counts for
q1–q13 × {unlabeled, labeled} on two seeded corpus graphs, computed by
an independent VF2 enumerator (``tests/oracle.py``).

Three layers of defense:

1. engine == fixture, all 52 cells (fast — runs in tier-1);
2. live oracle == fixture on a small spot-check subset, so a stale or
   hand-edited fixture is caught without paying full VF2 enumeration;
3. corpus-graph shapes match the fixture metadata, so a corpus change
   without ``--regen`` fails loudly instead of comparing apples to
   last year's oranges.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro import EngineConfig, STMatchEngine
from repro.core.candidates import CandidateComputer
from repro.core.counters import RunStatus
from repro.pattern import QUERIES

from tests import oracle

GRAPH_NAMES = ("sparse", "dense")
MODES = ("unlabeled", "labeled")


@pytest.fixture(scope="module")
def fixture():
    return oracle.load_fixture()


@pytest.fixture(scope="module")
def graphs():
    return oracle.corpus_graphs()


class TestFixtureIntegrity:
    def test_fixture_covers_full_matrix(self, fixture):
        assert fixture["schema_version"] == 2
        for gname in GRAPH_NAMES:
            for mode in MODES:
                cells = fixture["counts"][gname][mode]
                assert sorted(cells) == sorted(oracle.ORACLE_QUERIES)

    def test_fixture_covers_mutated_cells(self, fixture):
        # the batch-dynamic suite pins against these; schema v2 ships
        # one cell per mutation seed with the full query matrix
        for gname in GRAPH_NAMES:
            cells = fixture["mutated"][gname]
            assert [c["seed"] for c in cells] == oracle.MUTATION_SEEDS
            for cell in cells:
                assert cell["inserts"] and cell["deletes"]
                for mode in MODES:
                    assert sorted(cell["counts"][mode]) == sorted(
                        oracle.ORACLE_QUERIES)

    def test_corpus_graphs_match_fixture_meta(self, fixture, graphs):
        # a changed generator/seed without --regen must fail here, not
        # produce confusing count mismatches downstream
        for gname, g in graphs.items():
            meta = fixture["graphs"][gname]
            assert meta["num_vertices"] == g.num_vertices
            assert meta["num_edges"] == g.num_edges

    def test_labeled_protocol_pinned(self, fixture):
        proto = fixture["labeled_protocol"]
        assert proto["num_labels"] == oracle.NUM_LABELS
        assert proto["seed"] == oracle.LABEL_SEED


class TestEngineMatchesOracle:
    """The headline test: 52 engine runs against checked-in ground truth."""

    @pytest.mark.parametrize("gname", GRAPH_NAMES)
    @pytest.mark.parametrize("qname", oracle.ORACLE_QUERIES)
    @pytest.mark.parametrize("mode", MODES)
    def test_engine_equals_golden_count(self, fixture, graphs, gname, qname, mode):
        g = graphs[gname]
        q = QUERIES[qname]
        if mode == "labeled":
            g, q = oracle.labeled_pair(g, q)
        res = STMatchEngine(g, EngineConfig()).run(q)
        assert res.status == RunStatus.OK, repr(res)
        assert res.matches == fixture["counts"][gname][mode][qname], (
            f"engine disagrees with golden count on {gname}/{qname}/{mode}"
        )

    @pytest.mark.parametrize("qname", ["q1", "q5", "q8", "q13"])
    def test_naive_config_also_matches(self, fixture, graphs, qname):
        # counts must be config-independent: the no-optimization rung of
        # the ladder sees the same golden numbers
        res = STMatchEngine(graphs["dense"], EngineConfig.naive()).run(QUERIES[qname])
        assert res.status == RunStatus.OK
        assert res.matches == fixture["counts"]["dense"]["unlabeled"][qname]


class TestLiveOracleSpotCheck:
    """Recompute a cheap subset with the live VF2 counter.

    Guards against a stale/hand-edited fixture without the full
    enumeration cost (the complete regen is ``python tests/oracle.py
    --regen`` and takes a minute or two).
    """

    CELLS = [
        ("sparse", "q2", "unlabeled"),
        ("sparse", "q7", "labeled"),
        ("dense", "q8", "unlabeled"),
        ("dense", "q13", "labeled"),
    ]

    @pytest.mark.parametrize("gname,qname,mode", CELLS)
    def test_live_oracle_equals_fixture(self, fixture, graphs, gname, qname, mode):
        g = graphs[gname]
        q = QUERIES[qname]
        if mode == "labeled":
            g, q = oracle.labeled_pair(g, q)
        assert oracle.count_oracle(g, q) == fixture["counts"][gname][mode][qname]


def test_oracle_module_loads_standalone(monkeypatch):
    """``benchmarks/perf/workloads.py::golden_checks`` loads
    ``tests/oracle.py`` by file path and reads an ``ImportError`` as "no
    golden checks", so the module must import without the ``tests``
    package: hide it, then load the file the way the bench does."""
    for name in [m for m in sys.modules if m.startswith("tests.")] + ["tests"]:
        monkeypatch.setitem(sys.modules, name, None)
    spec = importlib.util.spec_from_file_location("oracle", Path(oracle.__file__))
    assert spec is not None and spec.loader is not None
    standalone = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(standalone)
    assert sorted(standalone.load_fixture()["counts"]) == sorted(GRAPH_NAMES)
    assert issubclass(standalone.ReferenceCandidateComputer, CandidateComputer)
    assert issubclass(standalone.ReferenceEngine, STMatchEngine)
    assert callable(standalone.count_pinned_monomorphisms)
