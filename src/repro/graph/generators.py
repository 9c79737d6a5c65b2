"""Synthetic graph generators.

The paper evaluates on SNAP social networks whose key properties are a
power-law degree distribution (median degree well below the warp width
of 32, heavy-tailed maximum degree) and strong clustering.  These
generators produce seeded, deterministic stand-ins with those shapes:

* :func:`rmat` — Kronecker/R-MAT recursive generator (skewed, clustered).
* :func:`chung_lu` — expected-degree-sequence model, used to match a
  target power-law exponent directly.
* :func:`powerlaw_cluster` — Holme–Kim style triangle-closing preferential
  attachment (high clustering, useful for clique queries).
* :func:`erdos_renyi` — uniform random baseline.
* :func:`random_regular_ish` — near-constant degree control case (the
  "no load imbalance" control for the work-stealing ablation).

All functions take an explicit ``seed`` and return a validated
:class:`~repro.graph.csr.CSRGraph`.
"""

from __future__ import annotations

import itertools

import numpy as np

from .csr import CSRGraph

__all__ = [
    "erdos_renyi",
    "rmat",
    "chung_lu",
    "powerlaw_cluster",
    "random_regular_ish",
]


def erdos_renyi(n: int, p: float, seed: int = 0, name: str = "er") -> CSRGraph:
    """G(n, p) random graph: for each row ``u`` one binomial draw for how
    many of the later vertices it links to, then that many distinct
    picks — a Python loop over rows, O(n) NumPy calls."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    # for each row u, candidates v in (u, n)
    for u in range(n):
        m = n - u - 1
        if m <= 0:
            continue
        k = rng.binomial(m, p)
        if k:
            vs = rng.choice(m, size=k, replace=False) + u + 1
            edges.append(np.stack([np.full(k, u, dtype=np.int64), vs.astype(np.int64)], axis=1))
    e = np.concatenate(edges, axis=0) if edges else np.empty((0, 2), dtype=np.int64)
    return CSRGraph.from_edges(n, e, name=name)


def rmat(
    scale: int,
    edge_factor: int = 8,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    name: str = "rmat",
) -> CSRGraph:
    """R-MAT generator: ``2**scale`` vertices, ``edge_factor * n`` arcs.

    The (a, b, c, d) quadrant probabilities default to the Graph500
    values, which yield the heavy-tailed skew the paper's work-stealing
    evaluation relies on.
    """
    if min(a, b, c) < 0:
        raise ValueError("a, b and c must be non-negative")
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must be <= 1")
    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    ab = a + b
    a_norm = a / ab if ab else 0.5
    c_norm = c / (c + d) if (c + d) else 0.5
    for _ in range(scale):
        src <<= 1
        dst <<= 1
        r_row = rng.random(m)
        r_col = rng.random(m)
        go_down = r_row >= ab
        src += go_down
        right_given_up = r_col >= a_norm
        right_given_down = r_col >= c_norm
        dst += np.where(go_down, right_given_down, right_given_up)
    edges = np.stack([src, dst], axis=1)
    return CSRGraph.from_edges(n, edges, name=name)


def chung_lu(
    n: int,
    avg_degree: float = 8.0,
    exponent: float = 2.5,
    min_degree: float = 1.0,
    seed: int = 0,
    name: str = "chung_lu",
) -> CSRGraph:
    """Chung–Lu graph with a power-law expected degree sequence.

    Vertex ``i`` gets weight ``w_i ~ i^{-1/(exponent-1)}`` scaled so the
    mean weight is ``avg_degree``; edge (u, v) appears with probability
    ``min(1, w_u * w_v / sum_w)``.  Every row is sampled against all
    later vertices, which is O(n²) work in O(n) NumPy calls — fine for
    the ≤10^4-vertex stand-ins used here.
    """
    if exponent <= 1.0:
        raise ValueError("exponent must be > 1")
    rng = np.random.default_rng(seed)
    i = np.arange(1, n + 1, dtype=np.float64)
    w = i ** (-1.0 / (exponent - 1.0))
    w *= avg_degree / w.mean()
    w = np.maximum(w, min_degree)
    total = w.sum()
    edges = []
    for u in range(n - 1):
        vs = np.arange(u + 1, n)
        p = np.minimum(1.0, w[u] * w[vs] / total)
        hit = rng.random(vs.size) < p
        if hit.any():
            chosen = vs[hit]
            edges.append(np.stack([np.full(chosen.size, u, dtype=np.int64), chosen.astype(np.int64)], axis=1))
    e = np.concatenate(edges, axis=0) if edges else np.empty((0, 2), dtype=np.int64)
    return CSRGraph.from_edges(n, e, name=name)


def powerlaw_cluster(
    n: int,
    m: int = 4,
    p_triangle: float = 0.5,
    seed: int = 0,
    name: str = "plc",
) -> CSRGraph:
    """Holme–Kim powerlaw-cluster graph (preferential attachment with
    triangle closing).  High clustering makes clique queries (q8, q16,
    q24) non-trivial, matching the social-network inputs of the paper.

    The output is defined by the iteration order of the generator's
    edge set: a triangle step draws a neighbor of ``base`` by index
    from the list of ``base``'s edges *in set order*.  The set does not
    change while one vertex picks its targets, so that order is read
    once per vertex (a C-level rank of the whole set) and each step
    sorts only ``base``'s incident edges by it, instead of scanning
    every edge in Python per step — O(n · |E|) C work rather than
    O(attempts · |E|) Python work, with the same draws and the same
    graph.
    """
    if m < 1 or m >= n:
        raise ValueError("need 1 <= m < n")
    if not 0.0 <= p_triangle <= 1.0:
        raise ValueError("p_triangle must be in [0, 1]")
    rng = np.random.default_rng(seed)
    # repeated-nodes list implements preferential attachment
    repeated: list[int] = []
    edges: set[tuple[int, int]] = set()
    # each vertex's edge tuples, in insertion order
    incident: list[list[tuple[int, int]]] = [[] for _ in range(n)]

    def add(u: int, v: int) -> None:
        if u == v:
            return
        # never a duplicate: the seed clique's pairs are distinct, and
        # later u is fresh with a set of targets
        e = (min(u, v), max(u, v))
        edges.add(e)
        incident[u].append(e)
        incident[v].append(e)
        repeated.append(u)
        repeated.append(v)

    # seed clique of m + 1 vertices
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            add(u, v)
    for u in range(m + 1, n):
        targets: set[int] = set()
        # base -> its neighbors in the edge set's order, for this u only
        ordered: dict[int, list[int]] = {}
        rank: dict[tuple[int, int], int] | None = None
        # first target: preferential
        t = int(repeated[rng.integers(len(repeated))])
        targets.add(t)
        while len(targets) < m:
            if rng.random() < p_triangle:
                # close a triangle: neighbor of an existing target
                base = int(rng.choice(list(targets)))
                if base not in ordered:
                    if rank is None:
                        rank = dict(zip(edges, itertools.count()))
                    ordered[base] = [b if a == base else a
                                     for (a, b) in sorted(incident[base], key=rank.__getitem__)]
                nbrs = [x for x in ordered[base] if x != u and x not in targets]
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


def random_regular_ish(n: int, degree: int, seed: int = 0, name: str = "regular") -> CSRGraph:
    """Near-``degree``-regular graph via a configuration-model style
    matching with rejection of duplicates/self-loops.  A control input
    with *no* degree skew: work stealing should barely help here."""
    if degree >= n:
        raise ValueError("degree must be < n")
    if n * degree % 2:
        raise ValueError("n * degree must be even: every edge uses two stubs")
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    rng.shuffle(stubs)
    pairs = stubs.reshape(-1, 2)
    ok = pairs[:, 0] != pairs[:, 1]
    return CSRGraph.from_edges(n, pairs[ok], name=name)
