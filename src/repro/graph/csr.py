"""Compressed-sparse-row (CSR) graph storage.

STMatch (and every system it compares against) operates on an adjacency
structure with *sorted* neighbor lists: sortedness is what makes the
warp-parallel binary-search set intersection/difference of Sec. VI
possible.  This module provides the immutable CSR container shared by
the STMatch engine, all baselines, and the benchmark harness.

Vertex ids are dense ``0..n-1`` int32 values.  Labels, when present, are
small non-negative integers (the paper uses 10 random labels).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

__all__ = [
    "CSRGraph",
    "SLICE_GATHER_ROWS",
    "gather_rows",
]

#: batches of at most this many rows are gathered one CSR slice per row:
#: the engine's frame steps gather a few rows of a few elements, where
#: each NumPy call costs more than the elements do.  Slicing costs
#: ~0.4 µs a row, so past ~12 rows one fancy-index gather is cheaper
#: (docs/PERFORMANCE.md, "Per-call cost", has the sweep)
SLICE_GATHER_ROWS = 12

#: rows per chunk of :meth:`CSRGraph.self_loop_mask`'s scan
_SCAN_ROWS = 1 << 16


def gather_rows(indptr: np.ndarray, indices: np.ndarray,
                rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR ``(indptr, indices)`` back to back.

    Returns ``(values, offsets)``: row ``rows[i]`` is
    ``values[offsets[i]:offsets[i + 1]]``; ``values`` is a fresh array
    of ``indices``' dtype, ``offsets`` ``int64`` of length
    ``len(rows) + 1``.  Small batches concatenate one slice per row,
    with the row bounds read as Python ints through a ``memoryview``
    made here (a cached one would make the graph unpicklable); larger
    ones are one fancy-index gather.
    """
    if 0 < rows.size <= SLICE_GATHER_ROWS:
        ptr = memoryview(indptr)
        parts = []
        offs = [0]
        end = 0
        for r in rows.tolist():
            lo, hi = ptr[r], ptr[r + 1]
            parts.append(indices[lo:hi])
            end += hi - lo
            offs.append(end)
        return np.concatenate(parts), np.array(offs, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    offsets = np.empty(rows.size + 1, dtype=np.int64)
    offsets[0] = 0
    lens.cumsum(out=offsets[1:])
    total = int(offsets[-1])
    if total == 0:
        return np.empty(0, dtype=indices.dtype), offsets
    idx = np.arange(total, dtype=np.int64) + (starts - offsets[:-1]).repeat(lens)
    return indices[idx], offsets


def _as_int32(a: np.ndarray | Sequence[int]) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    if arr.size and (arr.min() < np.iinfo(np.int32).min or arr.max() > np.iinfo(np.int32).max):
        raise ValueError("vertex ids exceed int32 range")
    return arr.astype(np.int32)


@dataclass(frozen=True)
class CSRGraph:
    """An immutable undirected (or directed) graph in CSR form.

    Attributes
    ----------
    indptr:
        ``int64`` array of length ``n + 1``; neighbors of vertex ``v``
        live in ``indices[indptr[v]:indptr[v + 1]]``.
    indices:
        ``int32`` array of neighbor ids.  Each neighbor list is sorted
        ascending and duplicate-free (checked at construction).
    labels:
        Optional ``int32`` array of per-vertex labels (length ``n``).
        ``None`` means the graph is unlabeled.
    directed:
        Whether ``indices`` stores out-neighbors of a directed graph.
        The paper's evaluation uses undirected graphs; directed support
        exists because cuTS queries are directed.
    name:
        Human-readable dataset name used in benchmark tables.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray | None = None
    directed: bool = False
    name: str = "graph"
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        indices = _as_int32(self.indices)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        if self.labels is not None:
            labels = _as_int32(self.labels)
            object.__setattr__(self, "labels", labels)
        if not self._validated:
            self.validate()
            object.__setattr__(self, "_validated", True)

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        labels: Sequence[int] | np.ndarray | None = None,
        directed: bool = False,
        name: str = "graph",
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Self-loops are dropped, duplicate edges are merged, and for
        undirected graphs each edge is stored in both directions.
        """
        e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        e = e[e[:, 0] != e[:, 1]]  # drop self loops
        if not directed and e.size:
            e = np.concatenate([e, e[:, ::-1]], axis=0)
        if e.size:
            # unique (src, dst) pairs, sorted by (src, dst): that yields
            # sorted neighbor lists directly.
            key = e[:, 0] * np.int64(n) + e[:, 1]
            key = np.unique(key)
            src = (key // n).astype(np.int64)
            dst = (key % n).astype(np.int32)
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int32)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        return cls(indptr=indptr, indices=dst, labels=labels, directed=directed, name=name)

    @classmethod
    def from_networkx(cls, g, label_attr: str | None = None, name: str | None = None) -> "CSRGraph":
        """Convert a :mod:`networkx` graph with contiguous int nodes."""
        import networkx as nx

        nodes = sorted(g.nodes())
        if nodes != list(range(len(nodes))):
            mapping = {v: i for i, v in enumerate(nodes)}
            g = nx.relabel_nodes(g, mapping)
        labels = None
        if label_attr is not None:
            labels = [g.nodes[v][label_attr] for v in range(g.number_of_nodes())]
        return cls.from_edges(
            g.number_of_nodes(),
            list(g.edges()),
            labels=labels,
            directed=g.is_directed(),
            name=name or getattr(g, "name", None) or "graph",
        )

    @classmethod
    def wrap_validated(
        cls,
        indptr: np.ndarray,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        degree: np.ndarray | None = None,
        directed: bool = False,
        name: str = "graph",
    ) -> "CSRGraph":
        """Wrap *pre-validated* arrays without copying or re-checking.

        ``__post_init__`` round-trips the arrays through ``int64`` and
        re-runs ``validate()``, which would defeat zero-copy attachment
        to :mod:`multiprocessing.shared_memory` buffers.  This
        constructor trusts the caller: the arrays must come from a
        graph that already passed validation (``repro.parallel`` exports
        exactly such arrays), with ``indptr`` int64 and ``indices`` /
        ``labels`` int32.  ``degree`` pre-seeds the degree cache so
        workers never recompute it.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "indptr", indptr)
        object.__setattr__(g, "indices", indices)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "directed", directed)
        object.__setattr__(g, "name", name)
        object.__setattr__(g, "_validated", True)
        if degree is not None:
            object.__setattr__(g, "_degree_cache", degree)
        return g

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Check structural invariants; raise ``ValueError`` on violation."""
        if self.indptr.ndim != 1 or self.indptr.size < 1:
            raise ValueError("indptr must be a 1-D array of length n + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr bounds do not match indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        n = self.num_vertices
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("neighbor id out of range")
        # sorted + unique neighbor lists: every step inside a row rises;
        # the step into a row's first entry (position indptr[v]) is exempt
        bad = np.diff(self.indices) <= 0
        starts = self.indptr[1:-1]
        bad[starts[(starts > 0) & (starts < self.indices.size)] - 1] = False
        if bad.any():
            pos = int(np.argmax(bad)) + 1
            v = int(np.searchsorted(self.indptr, pos, side="right")) - 1
            raise ValueError(f"neighbor list of vertex {v} is not sorted/unique")
        if self.labels is not None:
            if self.labels.shape != (n,):
                raise ValueError("labels must have one entry per vertex")
            if self.labels.size and self.labels.min() < 0:
                raise ValueError("labels must be non-negative")

    # -- basic accessors -----------------------------------------------

    @property
    def num_vertices(self) -> int:
        return int(self.indptr.size - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (or arcs if directed)."""
        m = int(self.indices.size)
        return m if self.directed else m // 2

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    @property
    def num_labels(self) -> int:
        if self.labels is None:
            return 0
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def degree(self, v: int | np.ndarray | None = None) -> np.ndarray | int:
        """Degree of one vertex, an array of vertices, or all vertices.

        The full degree array is computed once and cached (the graph is
        immutable); callers must treat the returned array as read-only.
        """
        deg = getattr(self, "_degree_cache", None)
        if deg is None:
            deg = np.diff(self.indptr).astype(np.int64)
            object.__setattr__(self, "_degree_cache", deg)
        if v is None:
            return deg
        return deg[v]

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` (a zero-copy CSR slice)."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbors_batch(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Concatenated neighbor lists of a batch of vertices.

        Returns ``(values, offsets)``: ``values`` holds the sorted
        neighbor lists of ``vs`` back to back in one ``int32`` array and
        ``offsets`` (``int64``, length ``len(vs) + 1``) delimits them —
        the list of ``vs[i]`` is ``values[offsets[i]:offsets[i + 1]]``
        (:func:`gather_rows`) — the segmented operand form of the
        engine's vectorized fast path.
        """
        return gather_rows(self.indptr, self.indices, vs)

    def in_neighbors_batch(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`in_neighbors` (equals :meth:`neighbors_batch`
        when undirected)."""
        return self.reversed_view().neighbors_batch(vs)

    def self_loop_mask(self) -> np.ndarray:
        """Boolean mask of the vertices listed in their own neighbor
        list, cached; read-only.  Scans the CSR arrays a chunk of rows
        at a time, not the row API, so views that count row reads (a
        partition shard's ``fallback_rows``) see none."""
        mask = getattr(self, "_self_loop_cache", None)
        if mask is None:
            n = self.num_vertices
            mask = np.zeros(n, dtype=bool)
            for lo in range(0, n, _SCAN_ROWS):
                hi = min(lo + _SCAN_ROWS, n)
                ptr = self.indptr[lo:hi + 1]
                rows = np.arange(lo, hi, dtype=np.int64).repeat(np.diff(ptr))
                mask[rows[self.indices[ptr[0]:ptr[-1]] == rows]] = True
            object.__setattr__(self, "_self_loop_cache", mask)
        out: np.ndarray = mask
        return out

    def reversed_view(self) -> "CSRGraph":
        """CSR over the reversed arcs (in-neighbors), cached.

        Directed pattern matching needs both ``N_out`` and ``N_in``
        (arcs from and into a matched vertex).  Undirected graphs return
        ``self``.  The view is rebuilt through :meth:`from_edges`, so a
        directed graph's self-loops are *dropped* from it: ``v`` may be
        in ``neighbors(v)`` but never in ``in_neighbors(v)``.  Engines
        rely on this as is (it fixes the inbound charges on such graphs);
        code that inverts adjacency through the view must correct r = v.
        """
        if not self.directed:
            return self
        cached = getattr(self, "_reversed_cache", None)
        if cached is None:
            n = self.num_vertices
            src = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.indptr)
            )
            arcs = np.stack([self.indices.astype(np.int64), src], axis=1)
            cached = CSRGraph.from_edges(
                n, arcs, labels=self.labels, directed=True,
                name=f"{self.name}(reversed)",
            )
            object.__setattr__(self, "_reversed_cache", cached)
        return cached

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sorted in-neighbor list (equals :meth:`neighbors` when
        undirected).  Never lists ``v`` itself on a directed graph:
        :meth:`reversed_view` drops self-loops."""
        return self.reversed_view().neighbors(v)

    def has_edge(self, u: int, v: int) -> bool:
        row = self.neighbors(u)
        i = int(np.searchsorted(row, v))
        return i < row.size and int(row[i]) == v

    def device_graph_bytes(self) -> int:
        """Bytes of graph data a virtual device must hold to run on it.

        For a plain graph that is the full CSR (the paper's Fig. 11
        duplication model charges every device the whole graph).
        Views with a smaller resident working set override this —
        :class:`repro.scale.partition.PartitionedGraph` charges only its
        owned-range + boundary replica — and the engine's fixed-memory
        allocator and the B-rule budget linter both go through here.
        A directed graph is charged its in-row CSR too
        (:meth:`reversed_view`, built here if no in-read has built it
        yet), so the charge does not depend on whether one has happened.
        """
        total = int(self.indices.nbytes + self.indptr.nbytes)
        if self.directed:
            rev = self.reversed_view()
            total += int(rev.indices.nbytes + rev.indptr.nbytes)
        if self.labels is not None:
            total += int(self.labels.nbytes)
        return total

    def max_degree(self) -> int:
        deg = self.degree()
        return int(deg.max()) if deg.size else 0

    def median_degree(self) -> float:
        deg = self.degree()
        return float(np.median(deg)) if deg.size else 0.0

    def label_of(self, v: int) -> int:
        if self.labels is None:
            raise ValueError("graph is unlabeled")
        return int(self.labels[v])

    def vertices_with_label(self, label: int) -> np.ndarray:
        """Sorted ids of vertices carrying ``label`` (empty if unlabeled)."""
        if self.labels is None:
            return np.empty(0, dtype=np.int32)
        return np.nonzero(self.labels == label)[0].astype(np.int32)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate canonical edges (``u < v`` for undirected graphs)."""
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                v = int(v)
                if self.directed or u < v:
                    yield (u, v)

    # -- transformations -------------------------------------------------

    def with_labels(self, labels: Sequence[int] | np.ndarray) -> "CSRGraph":
        """Return a copy of this graph carrying the given vertex labels."""
        return CSRGraph(
            indptr=self.indptr,
            indices=self.indices,
            labels=np.asarray(labels),
            directed=self.directed,
            name=self.name,
        )

    def without_labels(self) -> "CSRGraph":
        if self.labels is None:
            return self
        return CSRGraph(indptr=self.indptr, indices=self.indices, labels=None,
                        directed=self.directed, name=self.name)

    def to_networkx(self):
        import networkx as nx

        g = nx.DiGraph() if self.directed else nx.Graph()
        g.add_nodes_from(range(self.num_vertices))
        if self.labels is not None:
            for v in range(self.num_vertices):
                g.nodes[v]["label"] = int(self.labels[v])
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lbl = f", labels={self.num_labels}" if self.is_labeled else ""
        kind = "directed" if self.directed else "undirected"
        return (f"CSRGraph(name={self.name!r}, n={self.num_vertices}, "
                f"m={self.num_edges}, {kind}{lbl})")
