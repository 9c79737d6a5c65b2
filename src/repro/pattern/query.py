"""Query (pattern) graphs.

Query graphs are tiny (the paper evaluates sizes 5–7), so they are
stored as dense adjacency matrices with optional per-vertex labels.
A :class:`QueryGraph` is immutable and hashable; the matching-order and
symmetry-breaking machinery relabels it into matching-order positions
before planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = ["QueryGraph", "IsomorphismSearch"]

# Symmetry analysis (restrictions, |Aut|) costs at most k(k-1)/2 find-first
# searches and is sub-millisecond at this size; the bound is kept for the
# parts that do grow fast: the explicit ``automorphisms()`` list (k! maps for
# a clique) and the exhaustive matching-order search (k! orders).
MAX_QUERY_SIZE = 8


@dataclass(frozen=True)
class QueryGraph:
    """A connected query pattern (undirected by default).

    Attributes
    ----------
    adj:
        Boolean (k, k) adjacency matrix, zero diagonal.  Symmetric for
        undirected queries; ``adj[u, v]`` means the arc ``u → v`` for
        directed ones (the cuTS query style, Sec. VIII-A).
    labels:
        Optional int32 label per query vertex (abstract ids 0..L-1 that
        benchmarks bind to data-graph labels).
    directed:
        Directed-arc semantics; requires a directed data graph and
        edge-induced matching.
    name:
        Identifier such as ``q7`` used in tables.
    """

    adj: np.ndarray
    labels: np.ndarray | None = None
    name: str = "query"
    directed: bool = False
    _hash: int = field(default=0, repr=False, compare=False)

    def __post_init__(self) -> None:
        adj = np.asarray(self.adj, dtype=bool)
        object.__setattr__(self, "adj", adj)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency must be square")
        k = adj.shape[0]
        if k < 1 or k > MAX_QUERY_SIZE:
            raise ValueError(f"query size must be in [1, {MAX_QUERY_SIZE}]")
        if not self.directed and np.any(adj != adj.T):
            raise ValueError("undirected query adjacency must be symmetric")
        if np.any(np.diag(adj)):
            raise ValueError("query must have no self loops")
        if self.labels is not None:
            labels = np.asarray(self.labels, dtype=np.int32)
            if labels.shape != (k,):
                raise ValueError("labels must have one entry per query vertex")
            if labels.size and labels.min() < 0:
                raise ValueError("labels must be non-negative")
            object.__setattr__(self, "labels", labels)
        if k > 1 and not self._is_connected():
            raise ValueError("query graph must be connected")
        lab = tuple(self.labels.tolist()) if self.labels is not None else None
        object.__setattr__(self, "_hash", hash((adj.tobytes(), lab, self.directed)))

    def _is_connected(self) -> bool:
        k = self.size
        und = self.adj | self.adj.T
        seen = np.zeros(k, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(und[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        k: int,
        edges: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
        name: str = "query",
    ) -> "QueryGraph":
        adj = np.zeros((k, k), dtype=bool)
        for u, v in edges:
            if u == v:
                raise ValueError("self loop in query")
            adj[u, v] = adj[v, u] = True
        return cls(adj=adj, labels=None if labels is None else np.asarray(labels), name=name)

    @classmethod
    def from_arcs(
        cls,
        k: int,
        arcs: Iterable[tuple[int, int]],
        labels: Sequence[int] | None = None,
        name: str = "query",
    ) -> "QueryGraph":
        """Directed query from an arc list (``(u, v)`` = arc u → v)."""
        adj = np.zeros((k, k), dtype=bool)
        for u, v in arcs:
            if u == v:
                raise ValueError("self loop in query")
            adj[u, v] = True
        return cls(adj=adj, labels=None if labels is None else np.asarray(labels),
                   name=name, directed=True)

    @classmethod
    def clique(cls, k: int, name: str | None = None) -> "QueryGraph":
        adj = ~np.eye(k, dtype=bool)
        return cls(adj=adj, name=name or f"clique{k}")

    @classmethod
    def cycle(cls, k: int, name: str | None = None) -> "QueryGraph":
        return cls.from_edges(k, [(i, (i + 1) % k) for i in range(k)], name=name or f"cycle{k}")

    @classmethod
    def path(cls, k: int, name: str | None = None) -> "QueryGraph":
        return cls.from_edges(k, [(i, i + 1) for i in range(k - 1)], name=name or f"path{k}")

    @classmethod
    def star(cls, k: int, name: str | None = None) -> "QueryGraph":
        return cls.from_edges(k, [(0, i) for i in range(1, k)], name=name or f"star{k}")

    # -- accessors -----------------------------------------------------

    @property
    def size(self) -> int:
        return int(self.adj.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.adj.sum()) // 2

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    @property
    def is_clique(self) -> bool:
        k = self.size
        return self.num_edges == k * (k - 1) // 2

    def neighbors(self, u: int) -> np.ndarray:
        return np.nonzero(self.adj[u])[0]

    def connects(self, u: int, v: int) -> bool:
        """Edge or arc (either direction) between ``u`` and ``v``."""
        return bool(self.adj[u, v] or self.adj[v, u])

    def undirected_adj(self) -> np.ndarray:
        """Symmetric closure of the adjacency (ordering heuristics)."""
        return self.adj | self.adj.T

    def degree(self, u: int) -> int:
        return int(self.adj[u].sum())

    def edges(self) -> list[tuple[int, int]]:
        iu, iv = np.nonzero(np.triu(self.adj))
        return list(zip(iu.tolist(), iv.tolist()))

    def label_of(self, u: int) -> int | None:
        return None if self.labels is None else int(self.labels[u])

    # -- transformations -------------------------------------------------

    def relabeled(self, order: Sequence[int]) -> "QueryGraph":
        """Permute vertices so that ``order[i]`` becomes vertex ``i``.

        This is how a matching order is baked in: after relabeling, the
        matching order is simply ``0, 1, ..., k-1``.
        """
        order = list(order)
        if sorted(order) != list(range(self.size)):
            raise ValueError("order must be a permutation of query vertices")
        idx = np.asarray(order)
        adj = self.adj[np.ix_(idx, idx)]
        labels = None if self.labels is None else self.labels[idx]
        return QueryGraph(adj=adj, labels=labels, name=self.name, directed=self.directed)

    def with_labels(self, labels: Sequence[int]) -> "QueryGraph":
        return QueryGraph(adj=self.adj, labels=np.asarray(labels), name=self.name,
                          directed=self.directed)

    def without_labels(self) -> "QueryGraph":
        return QueryGraph(adj=self.adj, labels=None, name=self.name,
                          directed=self.directed)

    def automorphisms(self) -> list[tuple[int, ...]]:
        """All label- and adjacency-preserving vertex permutations, in
        lexicographic order (``sigma[u]`` is the image of ``u``).

        The list has ``|Aut|`` entries (up to ``k!`` for a clique) and
        the time to build it scales with that; callers that only need
        restrictions or ``|Aut|`` use
        :func:`repro.pattern.symmetry.stabilizer_chain`, which never
        lists the group.
        """
        return list(IsomorphismSearch(self, self).maps())

    def is_isomorphic_to(self, other: "QueryGraph") -> bool:
        """Exact isomorphism test between two small queries."""
        return next(IsomorphismSearch(self, other).maps(), None) is not None

    def to_networkx(self):
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.size))
        if self.labels is not None:
            for v in range(self.size):
                g.nodes[v]["label"] = int(self.labels[v])
        if self.directed:
            iu, iv = np.nonzero(self.adj)
            g.add_edges_from(zip(iu.tolist(), iv.tolist()))
        else:
            g.add_edges_from(self.edges())
        return g

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        lab_eq = (
            (self.labels is None and other.labels is None)
            or (self.labels is not None and other.labels is not None
                and np.array_equal(self.labels, other.labels))
        )
        return bool(
            np.array_equal(self.adj, other.adj)
            and lab_eq
            and self.directed == other.directed
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lbl = ", labeled" if self.is_labeled else ""
        return f"QueryGraph(name={self.name!r}, k={self.size}, m={self.num_edges}{lbl})"


class IsomorphismSearch:
    """Backtracking search for the isomorphisms ``a → b`` of two queries.

    A map is grown one vertex of ``a`` at a time (``0, 1, ..., k-1``),
    trying images in ascending order, and is extended only while it is
    still a partial isomorphism: the image is unused, has the same
    (out-degree, in-degree, label) invariant, and agrees with every
    vertex mapped so far on both arc directions and on the diagonal.
    Complete maps therefore come out in lexicographic order, and a
    caller that needs only one takes the first and drops the generator.

    Everything runs on plain Python lists — no NumPy call per candidate.
    """

    def __init__(self, a: QueryGraph, b: QueryGraph) -> None:
        self._k = a.size
        self._adj_a = a.adj.tolist()
        self._adj_b = self._adj_a if b is a else b.adj.tolist()
        inv_a = _vertex_invariants(a, self._adj_a)
        inv_b = inv_a if b is a else _vertex_invariants(b, self._adj_b)
        # Equal invariant multisets imply equal size, edge count and labels;
        # without them no vertex gets an image and every search is empty.
        if sorted(inv_a) != sorted(inv_b):
            inv_b = []
        self._images: list[list[int]] = [
            [x for x, inv in enumerate(inv_b) if inv == mine] for mine in inv_a
        ]

    def maps(self, prefix: Sequence[int] = ()) -> Iterator[tuple[int, ...]]:
        """Yield every isomorphism ``m`` (``m[u]`` = image of ``u``) with
        ``m[:len(prefix)] == prefix``, in lexicographic order."""
        image: list[int] = []
        for u, x in enumerate(prefix):
            if x not in self._images[u] or not self._consistent(image, x):
                return
            image.append(x)
        yield from self._extend(image)

    def _consistent(self, image: list[int], x: int) -> bool:
        """Whether mapping vertex ``u = len(image)`` to ``x`` keeps
        ``image`` an injective partial isomorphism."""
        if x in image:
            return False
        u = len(image)
        adj_a, adj_b = self._adj_a, self._adj_b
        row_a, row_b = adj_a[u], adj_b[x]
        if row_a[u] != row_b[x]:
            return False
        for w, y in enumerate(image):
            if row_a[w] != row_b[y] or adj_a[w][u] != adj_b[y][x]:
                return False
        return True

    def _extend(self, image: list[int]) -> Iterator[tuple[int, ...]]:
        u = len(image)
        if u == self._k:
            yield tuple(image)
            return
        for x in self._images[u]:
            if self._consistent(image, x):
                image.append(x)
                yield from self._extend(image)
                image.pop()


def _vertex_invariants(
    q: QueryGraph, adj: list[list[bool]]
) -> list[tuple[int, int, int]]:
    """Per-vertex (out-degree, in-degree, label) — preserved by any
    isomorphism, so only equal-invariant vertices can be images."""
    labels = [0] * q.size if q.labels is None else q.labels.tolist()
    in_degs = [sum(col) for col in zip(*adj)]
    return [(sum(adj[u]), in_degs[u], labels[u]) for u in range(q.size)]
