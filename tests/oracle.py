"""Brute-force golden-count oracle (NetworkX VF2) and the per-slot reference.

The engine's test suite so far pinned *differential* identities
(walk vs reference, observed vs unobserved, faulted vs fault-free)
— all of which a systematically wrong engine could satisfy.  This
module provides ground truth: an independent NetworkX-based counter
and a small corpus of seeded graphs whose exact counts are checked in
as ``tests/fixtures/golden_counts.json``.

Semantics: the engine counts *unique edge-induced subgraphs* (vertex
sets + required edges), i.e. monomorphism images up to query
automorphism.  VF2's ``subgraph_monomorphisms_iter`` enumerates
*mappings*, so::

    oracle_count = |monomorphisms| / |Aut(query)|

(labels participate in both sides via ``node_match``).  ``|Aut|`` is
VF2's too — the query's self-monomorphism count,
:func:`nx_num_automorphisms` — so no code under test is on the oracle's
side.  The division is asserted exact — a remainder would mean the two
sides disagree on semantics.

The module also keeps the ``k!`` enumeration the library used before
its stabilizer-chain search (:func:`bruteforce_automorphisms`,
:func:`bruteforce_restrictions`) as the differential reference for
:mod:`repro.pattern.symmetry`; a pinned backtracking count
(:func:`count_pinned_embeddings`, itself checked against the pinned VF2
count :func:`count_pinned_monomorphisms`) as the reference for anchored
``frontier_count`` runs; and the literal per-slot Fig. 7
``getCandidates`` (:class:`ReferenceCandidateComputer`, run through
:class:`ReferenceEngine`) that the production walk's matches *and*
simulated cycle charges are checked against; and the full-scan
Holme–Kim generator (:func:`powerlaw_cluster_reference`) that the
production generator's output is checked against.

The module imports only ``repro`` and third-party packages (never
``tests``): ``benchmarks/perf/workloads.py`` loads it by file path.

Regenerate the fixture after changing the corpus::

    PYTHONPATH=src python tests/oracle.py --regen
"""

from __future__ import annotations

import argparse
import json
from itertools import permutations
from pathlib import Path

import networkx as nx
import numpy as np

from repro.codemotion.depgraph import BaseKind, OpKind
from repro.core.candidates import CandidateComputer
from repro.core.config import EngineConfig
from repro.core.engine import STMatchEngine
from repro.core.stack import Frame, WarpStack
from repro.graph.csr import CSRGraph
from repro.graph.labels import assign_random_labels, relabel_query_consistently
from repro.pattern import QUERIES
from repro.pattern.plan import MatchingPlan
from repro.pattern.query import QueryGraph
from repro.virtgpu.setops import combined_set_op
from repro.virtgpu.warp import Warp

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden_counts.json"

#: queries covered by the corpus (the paper's q1–q13 set)
ORACLE_QUERIES = [f"q{i}" for i in range(1, 14)]

#: labeled-protocol constants — must mirror tests/test_fastpath_property.py
NUM_LABELS = 3
LABEL_SEED = 7


def corpus_graphs() -> dict[str, CSRGraph]:
    """The seed graphs of the golden corpus (deterministic generators).

    ``sparse`` exercises deep exploration with small candidate sets;
    ``dense`` (70 edges on 20 vertices) makes the clique-bearing queries
    (q6, q8, q13) produce nonzero counts while staying enumerable by
    brute force in seconds.
    """
    sparse = nx.powerlaw_cluster_graph(48, 2, 0.4, seed=42)
    dense = nx.powerlaw_cluster_graph(20, 4, 0.9, seed=7)
    return {
        "sparse": CSRGraph.from_networkx(sparse, name="sparse"),
        "dense": CSRGraph.from_networkx(dense, name="dense"),
    }


def powerlaw_cluster_reference(
    n: int,
    m: int = 4,
    p_triangle: float = 0.5,
    seed: int = 0,
    name: str = "plc",
) -> CSRGraph:
    """The straightforward Holme–Kim generator that
    :func:`repro.graph.generators.powerlaw_cluster` must reproduce byte
    for byte: every triangle step scans the whole edge set for
    ``base``'s neighbors, in the set's iteration order."""
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    rng = np.random.default_rng(seed)
    # repeated-nodes list implements preferential attachment
    repeated: list[int] = []
    edges: set[tuple[int, int]] = set()

    def add(u: int, v: int) -> None:
        if u == v:
            return
        edges.add((min(u, v), max(u, v)))
        repeated.append(u)
        repeated.append(v)

    # seed clique of m + 1 vertices
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            add(u, v)
    for u in range(m + 1, n):
        targets: set[int] = set()
        # first target: preferential
        t = int(repeated[rng.integers(len(repeated))])
        targets.add(t)
        while len(targets) < m:
            if rng.random() < p_triangle:
                # close a triangle: neighbor of an existing target
                base = int(rng.choice(list(targets)))
                nbrs = [b if a == base else a for (a, b) in edges if base in (a, b)]
                nbrs = [x for x in nbrs if x != u and x not in targets]
                if nbrs:
                    targets.add(int(nbrs[int(rng.integers(len(nbrs)))]))
                    continue
            cand = int(repeated[rng.integers(len(repeated))])
            if cand != u:
                targets.add(cand)
        for t in targets:
            add(u, t)
    e = np.asarray(sorted(edges), dtype=np.int64)
    return CSRGraph.from_edges(n, e, name=name)


def labeled_pair(graph: CSRGraph, query: QueryGraph) -> tuple[CSRGraph, QueryGraph]:
    """Label a corpus graph + query with the suite's standard protocol."""
    lg = assign_random_labels(graph, num_labels=NUM_LABELS, seed=LABEL_SEED)
    abstract = np.arange(query.size, dtype=np.int32) % NUM_LABELS
    bound = relabel_query_consistently(abstract, lg, seed=LABEL_SEED)
    return lg, query.with_labels(bound)


def _label_match(query: QueryGraph):
    if not query.is_labeled:
        return None
    return nx.algorithms.isomorphism.categorical_node_match("label", None)


def nx_num_automorphisms(query: QueryGraph) -> int:
    """``|Aut(query)|`` from NetworkX alone: the number of label- and
    arc-preserving monomorphisms of the query onto itself (same vertex
    and edge counts on both sides, so every one is an automorphism)."""
    q_nx = query.to_networkx()
    matcher_cls = (nx.algorithms.isomorphism.DiGraphMatcher if query.directed
                   else nx.algorithms.isomorphism.GraphMatcher)
    matcher = matcher_cls(q_nx, q_nx, node_match=_label_match(query))
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


def bruteforce_automorphisms(query: QueryGraph) -> list[tuple[int, ...]]:
    """All automorphisms by testing each of the ``k!`` permutations, in
    lexicographic order — the reference the library's search must equal."""
    k = query.size
    labs = query.labels if query.is_labeled else np.zeros(k, dtype=np.int32)
    result = []
    for perm in permutations(range(k)):
        p = np.asarray(perm)
        if (np.array_equal(labs, labs[p])
                and np.array_equal(query.adj, query.adj[np.ix_(p, p)])):
            result.append(tuple(perm))
    return result


def bruteforce_restrictions(
    query: QueryGraph, group: list[tuple[int, ...]] | None = None
) -> list[tuple[int, int]]:
    """Stabilizer-chain restrictions computed from the listed group
    (``group`` = an already computed :func:`bruteforce_automorphisms`)."""
    if group is None:
        group = bruteforce_automorphisms(query)
    restrictions: list[tuple[int, int]] = []
    for i in range(query.size):
        restrictions += [(i, j) for j in sorted({s[i] for s in group}) if j != i]
        group = [s for s in group if s[i] == i]
    return restrictions


def count_oracle(graph: CSRGraph, query: QueryGraph) -> int:
    """Count unique edge-induced matches of ``query`` by brute force."""
    g_nx = graph.to_networkx()
    q_nx = query.to_networkx()
    if query.is_labeled and not graph.is_labeled:
        raise ValueError("labeled query against an unlabeled graph")
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        g_nx, q_nx, node_match=_label_match(query)
    )
    num_mono = sum(1 for _ in matcher.subgraph_monomorphisms_iter())
    num_aut = nx_num_automorphisms(query)
    if num_mono % num_aut:
        raise AssertionError(
            f"{num_mono} monomorphisms not divisible by |Aut| = {num_aut} "
            f"for {query!r} — semantics mismatch"
        )
    return num_mono // num_aut


def count_pinned_monomorphisms(
    graph: CSRGraph,
    query: QueryGraph,
    order: "list[int] | tuple[int, ...]",
    pins: dict[int, int],
) -> int:
    """VF2 count of the monomorphisms φ of ``query`` into ``graph`` with
    ``φ(order[i]) = pins[i]`` for every pinned position ``i``.

    No symmetry breaking and no ``/|Aut|``: this is what an anchored
    plan (``symmetry_breaking=False`` with matching order ``order``)
    counts under the same pins.  Each pin becomes a node attribute both
    sides must agree on, and VF2 extends its mapping in the query
    graph's node order, so the pinned query vertices go first and every
    partial mapping it explores already respects the pins.
    """
    if len(set(pins.values())) < len(pins):
        return 0  # two positions on one data vertex: not injective
    if not all(0 <= v < graph.num_vertices for v in pins.values()):
        return 0
    g_nx = graph.to_networkx()
    plain = query.to_networkx()
    first = [order[i] for i in sorted(pins)]
    q_nx = nx.Graph()
    q_nx.add_nodes_from((u, plain.nodes[u]) for u in first + [u for u in order if u not in first])
    q_nx.add_edges_from(plain.edges)
    for i, v in pins.items():
        g_nx.nodes[v]["pin"] = i
        q_nx.nodes[order[i]]["pin"] = i
    labeled = query.is_labeled

    def node_match(gn: dict, qn: dict) -> bool:
        return (gn.get("pin") == qn.get("pin")
                and (not labeled or gn.get("label") == qn.get("label")))

    matcher = nx.algorithms.isomorphism.GraphMatcher(g_nx, q_nx, node_match=node_match)
    return sum(1 for _ in matcher.subgraph_monomorphisms_iter())


def count_pinned_embeddings(
    graph: CSRGraph,
    query: QueryGraph,
    order: "list[int] | tuple[int, ...]",
    pins: dict[int, int],
) -> int:
    """What :func:`count_pinned_monomorphisms` counts, by plain-Python
    backtracking over adjacency sets in ``order``.

    Position ``i`` takes ``pins[i]`` when pinned, else the intersection
    of its mapped back-neighbors' adjacency sets (every vertex when it
    has none), minus vertices already used and, for labeled queries,
    vertices of another label.  It shares no code with the library's
    set operations, and is cheap enough to be the per-cell reference
    of the pinned frontier tests; VF2 stays its own check on one cell
    per query.
    """
    n = graph.num_vertices
    adj = [set(graph.neighbors(v).tolist()) for v in range(n)]
    labels = graph.labels.tolist() if query.is_labeled else None
    qlabels = query.labels.tolist() if query.is_labeled else None
    back = [[j for j in range(i) if query.connects(order[i], order[j])]
            for i in range(len(order))]
    mapped: list[int] = []

    def candidates(i: int) -> set[int]:
        if i in pins:
            cands = {pins[i]} if 0 <= pins[i] < n else set()
        elif back[i]:
            cands = set(adj[mapped[back[i][0]]])
        else:
            cands = set(range(n))
        for j in back[i]:
            cands &= adj[mapped[j]]
        cands.difference_update(mapped)
        if labels is not None:
            want = qlabels[order[i]]
            cands = {v for v in cands if labels[v] == want}
        return cands

    def extend(i: int) -> int:
        cands = candidates(i)
        if i == len(order) - 1:
            return len(cands)
        total = 0
        for v in cands:
            mapped.append(v)
            total += extend(i + 1)
            mapped.pop()
        return total

    return extend(0)


def golden_count_after_edits(
    graph: CSRGraph,
    query: QueryGraph,
    inserts: "list[tuple[int, int]]",
    deletes: "list[tuple[int, int]]",
) -> int:
    """VF2 recount on a mutated edge list (delete-then-insert).

    Ground truth for the batch-dynamic suite: the mutation happens on a
    plain Python edge set — no :class:`~repro.dynamic.OverlayGraph`, no
    incremental counting — so agreement with ``count_delta`` is a real
    three-way identity, not self-consistency.
    """
    edges = {(min(u, v), max(u, v)) for u, v in graph.edges()}
    edges -= {(min(u, v), max(u, v)) for u, v in deletes}
    edges |= {(min(u, v), max(u, v)) for u, v in inserts}
    mutated = CSRGraph.from_edges(
        graph.num_vertices, sorted(edges), labels=graph.labels,
        name=f"{graph.name}+edits")
    return count_oracle(mutated, query)


def seeded_edit_batch(
    graph: CSRGraph,
    seed: int,
    num_deletes: int = 2,
    num_inserts: int = 2,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A deterministic ``(inserts, deletes)`` pair for ``graph``.

    Deletes are sampled from the existing edges, inserts from absent
    vertex pairs — both via one seeded generator so a fixture cell and
    a test replaying the same seed mutate identically.
    """
    rng = np.random.default_rng(seed)
    existing = sorted((min(u, v), max(u, v)) for u, v in graph.edges())
    picks = rng.choice(len(existing), min(num_deletes, len(existing)),
                       replace=False)
    deletes = [existing[i] for i in sorted(int(i) for i in picks)]
    inserts: list[tuple[int, int]] = []
    present = set(existing)
    tries = 0
    while len(inserts) < num_inserts and tries < 50 * num_inserts:
        tries += 1
        u, v = sorted(int(x) for x in rng.integers(0, graph.num_vertices, 2))
        if u != v and (u, v) not in present and (u, v) not in inserts:
            inserts.append((u, v))
    return inserts, deletes


class ReferenceCandidateComputer(CandidateComputer):
    """The literal per-slot Fig. 7 ``getCandidates``: every unrolled
    slot resolves its own bases and operands, runs the warp-combined
    set operations (Fig. 8, :func:`~repro.virtgpu.setops.combined_set_op`)
    and filters its candidates in sequential compactions.

    Apart from the constructor's tables (label LUTs, slot capacity) it
    shares nothing with the production walk — no lowered
    program, no ``LevelOps`` — yet must issue the same cycle charges in
    the same order, so engine runs through it reproduce
    matches, cycles and steal counts byte for byte.  With
    ``count_only`` it still builds the frame and returns its per-slot
    sizes.
    """

    def __init__(self, graph: CSRGraph, plan: MatchingPlan, config: EngineConfig) -> None:
        super().__init__(graph, plan, config)
        q = plan.query
        # a candidate set that also feeds deeper sets carries a merged
        # multi-label filter (Fig. 10b): iteration re-filters to the
        # level's own label
        self._level_label: list[int | None] = (
            [int(x) for x in q.labels] if q.labels is not None else [None] * plan.size)

    def compute_frame(self, warp, stack, level, slot_vertices, count_only=False):
        slot_vertices = np.asarray(slot_vertices, dtype=np.int32)
        if slot_vertices.size == 0:
            raise ValueError("a frame needs at least one slot")
        frame = self._frame(warp, stack, level, slot_vertices)
        if count_only:
            return np.asarray([c.size for c in frame.cand], dtype=np.int64)
        return frame

    def _frame(self, warp: Warp, stack: WarpStack, level: int,
               slot_vertices: np.ndarray) -> Frame:
        nslots = int(slot_vertices.size)
        m_prefix = stack.match_up_to(level - 1)  # positions 0..level-2
        frame_sets: dict[int, list[np.ndarray]] = {}

        def operand(position: int, slot: int, inbound: bool) -> np.ndarray:
            """Out- (or in-) neighbor list of the vertex at ``position``."""
            v = int(slot_vertices[slot]) if position == level - 1 else m_prefix[position]
            return self.graph.in_neighbors(v) if inbound else self.graph.neighbors(v)

        def set_data(sid: int, slot: int) -> np.ndarray:
            if self.program.recipes[sid].level == level:
                return frame_sets[sid][slot]
            return stack.frames[self.program.recipes[sid].level].set_instance(sid)

        for sid in self.program.sets_at_level[level]:
            r = self.program.recipes[sid]
            if r.base is BaseKind.NEIGHBORS:
                bases = [operand(r.base_arg, u, r.base_inbound) for u in range(nslots)]
            elif r.base is BaseKind.REF:
                bases = [set_data(r.base_arg, u) for u in range(nslots)]
            else:  # ALL only appears at level 0, handled by root_frame
                raise AssertionError("ALL base outside the root frame")
            if not r.ops:
                # explicit neighbor-list copy into C (e.g. C1 = N(v0))
                current = [self._apply_label_filter(b.copy(), r.label_filter) for b in bases]
                warp.charge_copy(sum(b.size for b in bases))
            else:
                current = bases
                for op in r.ops:
                    operands = [operand(op.position, u, op.inbound) for u in range(nslots)]
                    diff = [op.kind is OpKind.DIFFERENCE] * nslots
                    current = combined_set_op(warp, current, operands, diff)
                current = [self._apply_label_filter(c, r.label_filter) for c in current]
            # host-memory penalty past the slot capacity
            over = sum(max(0, c.size - self.slot_capacity) for c in current)
            if over:
                warp.charge(warp.cost.host_access * warp.cost.rounds(over))
            frame_sets[sid] = current

        sid_c = self.program.candidate_of_level[level]
        cand: list[np.ndarray] = []
        total_filtered = 0
        for u in range(nslots):
            raw = set_data(sid_c, u)
            cand.append(self._filter(raw, level, m_prefix, int(slot_vertices[u])))
            total_filtered += raw.size
        if total_filtered:
            warp.charge_filter(total_filtered)
        return Frame(level=level, slot_vertices=slot_vertices, cand=cand, sets=frame_sets)

    def _filter(self, raw: np.ndarray, level: int, m_prefix: list[int],
                slot_vertex: int) -> np.ndarray:
        """The level's label, symmetry floor and injectivity."""
        arr = raw
        lab = self._level_label[level]
        if lab is not None and arr.size:
            arr = arr[self.graph.labels[arr] == lab]
        # symmetry breaking: a candidate must exceed every restricted
        # earlier match; candidate arrays are sorted, so slice
        floor = -1
        for i in self.plan.restrictions[level]:
            floor = max(floor, slot_vertex if i == level - 1 else m_prefix[i])
        if floor >= 0 and arr.size:
            arr = arr[np.searchsorted(arr, floor, side="right"):]
        # injectivity: drop already-matched vertices
        if arr.size:
            used = m_prefix + [slot_vertex]
            mask = np.isin(arr, np.asarray(used, dtype=arr.dtype), invert=True)
            if not mask.all():
                arr = arr[mask]
        return arr


class ReferenceEngine(STMatchEngine):
    """An :class:`STMatchEngine` whose launches run
    :class:`ReferenceCandidateComputer` — never the codegen tier, so
    ``EngineConfig(codegen=True)`` cannot turn a reference run into a
    production one."""

    def _make_computer(self, plan: MatchingPlan, cfg: EngineConfig) -> CandidateComputer:
        return ReferenceCandidateComputer(self.graph, plan, cfg)


#: seeds of the checked-in mutated-graph fixture cells
MUTATION_SEEDS = [101, 202]


def generate_fixture() -> dict:
    """Recompute every golden count (slow: full VF2 enumeration)."""
    graphs = corpus_graphs()
    counts: dict[str, dict[str, dict[str, int]]] = {}
    meta: dict[str, dict] = {}
    for gname, g in graphs.items():
        meta[gname] = {
            "num_vertices": int(g.num_vertices),
            "num_edges": int(g.num_edges),
        }
        counts[gname] = {"unlabeled": {}, "labeled": {}}
        for qname in ORACLE_QUERIES:
            q = QUERIES[qname]
            counts[gname]["unlabeled"][qname] = count_oracle(g, q)
            lg, lq = labeled_pair(g, q)
            counts[gname]["labeled"][qname] = count_oracle(lg, lq)
    mutated: dict[str, list[dict]] = {}
    for gname, g in graphs.items():
        cells: list[dict] = []
        for seed in MUTATION_SEEDS:
            inserts, deletes = seeded_edit_batch(g, seed)
            cell: dict = {
                "seed": seed,
                "inserts": [list(e) for e in inserts],
                "deletes": [list(e) for e in deletes],
                "counts": {"unlabeled": {}, "labeled": {}},
            }
            for qname in ORACLE_QUERIES:
                q = QUERIES[qname]
                cell["counts"]["unlabeled"][qname] = golden_count_after_edits(
                    g, q, inserts, deletes)
                lg, lq = labeled_pair(g, q)
                cell["counts"]["labeled"][qname] = golden_count_after_edits(
                    lg, lq, inserts, deletes)
            cells.append(cell)
        mutated[gname] = cells
    return {
        "schema_version": 2,
        "oracle": "networkx.GraphMatcher.subgraph_monomorphisms_iter / |Aut|",
        "labeled_protocol": {
            "num_labels": NUM_LABELS,
            "seed": LABEL_SEED,
            "note": "assign_random_labels + relabel_query_consistently "
                    "(same as tests/test_fastpath_property.py)",
        },
        "graphs": meta,
        "counts": counts,
        "mutated": mutated,
    }


def load_fixture() -> dict:
    with FIXTURE_PATH.open(encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--regen", action="store_true",
                   help=f"recompute and overwrite {FIXTURE_PATH}")
    args = p.parse_args(argv)
    if not args.regen:
        p.error("nothing to do (pass --regen)")
    fixture = generate_fixture()
    FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    with FIXTURE_PATH.open("w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=2, sort_keys=True)
        fh.write("\n")
    ncells = sum(len(v) for g in fixture["counts"].values() for v in g.values())
    print(f"wrote {FIXTURE_PATH} ({ncells} golden counts)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
