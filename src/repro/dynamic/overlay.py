"""Delta-overlay graphs: a mutable view over an immutable CSR base.

:class:`~repro.graph.csr.CSRGraph` is deliberately immutable — every
cache (degrees, bitmaps, plans) hangs off the object, and the process
backend shares its arrays zero-copy.  Batch-dynamic matching needs a
*mutated* graph without paying a full rebuild per batch, so this module
adds :class:`OverlayGraph`: the base CSR plus two sorted delta-arc
arrays (inserts and deletes), exposing the **same read API**
(``neighbors`` / ``neighbors_batch`` / ``degree`` / ``has_edge`` /
``adjacency_bitmap`` / …) so the candidate computer, the fast path and
the whole engine run on it unmodified.  ``compact()`` merges the deltas
into a fresh validated CSR when the overlay grows past its usefulness.

Delta invariants (machine-checked by :meth:`OverlayGraph.validate` and
the D601–D605 lint rules in :mod:`repro.analysis.overlay`):

* arc arrays are ``(m, 2)`` ``int64``, lexicographically sorted,
  duplicate-free, self-loop-free, endpoints in range;
* insert and delete sets are disjoint;
* inserts are absent from the base, deletes are present in it
  (a delta is *effective* — no-ops are normalized away up front);
* undirected overlays store both arc directions of every edge.

:class:`EditBatch` is the user-facing edit carrier: canonical
``u < v`` edge arrays with delete-then-insert semantics, and
:meth:`EditBatch.normalized_against` reduces a raw batch to its
effective form against any graph (base or overlay).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graph.csr import CSRGraph

__all__ = ["EditBatch", "OverlayGraph", "overlaid"]

_EMPTY_EDGES = np.empty((0, 2), dtype=np.int64)
_EMPTY_I32 = np.empty(0, dtype=np.int32)

#: one violation found by :meth:`OverlayGraph.violations` —
#: ``(kind, location, message)`` with ``kind`` one of the keys of
#: ``repro.analysis.overlay.KIND_TO_RULE``
Violation = tuple[str, str, str]


def _canonical_edges(edges: "Iterable[tuple[int, int]] | np.ndarray | Sequence[Sequence[int]]",
                     ) -> np.ndarray:
    """Normalize an edge list to a sorted, unique ``(m, 2)`` ``u < v`` array."""
    e = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                   dtype=np.int64)
    if e.size == 0:
        return _EMPTY_EDGES
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValueError("edges must be an (m, 2) array of vertex pairs")
    if e.min() < 0:
        raise ValueError("edge endpoint out of range")
    e = e[e[:, 0] != e[:, 1]]  # drop self loops
    if e.size == 0:
        return _EMPTY_EDGES
    e = np.sort(e, axis=1)  # canonical u < v
    return np.unique(e, axis=0)  # lexicographic sort + dedup


def _edge_keys(edges: np.ndarray, stride: int) -> np.ndarray:
    """``src * stride + dst`` int64 keys (sorted iff lexicographically
    sorted arcs)."""
    if edges.size == 0:
        return np.empty(0, dtype=np.int64)
    return edges[:, 0] * np.int64(stride) + edges[:, 1]


def _arcs_from_keys(keys: np.ndarray, stride: int) -> np.ndarray:
    if keys.size == 0:
        return _EMPTY_EDGES
    src, dst = np.divmod(keys, np.int64(stride))
    return np.stack([src, dst], axis=1)


def _expand_arcs(edges: np.ndarray, directed: bool, stride: int) -> np.ndarray:
    """Canonical edges → sorted arc array (both directions if undirected)."""
    if edges.size == 0:
        return _EMPTY_EDGES
    arcs = edges if directed else np.concatenate([edges, edges[:, ::-1]], axis=0)
    keys = np.sort(_edge_keys(arcs, stride))
    return _arcs_from_keys(keys, stride)


def _membership(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask: which of ``keys`` appear in ``sorted_keys``."""
    if keys.size == 0:
        return np.zeros(0, dtype=bool)
    if sorted_keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, sorted_keys.size - 1, out=pos)
    return np.asarray(sorted_keys[pos] == keys)


@dataclass(frozen=True)
class EditBatch:
    """One batch of edge edits with delete-then-insert semantics.

    ``inserts`` and ``deletes`` are canonical ``(m, 2)`` ``int64``
    arrays (``u < v``, lexicographically sorted, unique).  An edge in
    *both* lists over a graph that already has it is a net no-op; over
    a graph that lacks it, it is an insert — exactly what applying the
    deletes first, then the inserts, yields.
    """

    inserts: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)
    deletes: np.ndarray = field(default_factory=lambda: _EMPTY_EDGES)

    @classmethod
    def from_lists(
        cls,
        inserts: "Iterable[tuple[int, int]] | np.ndarray" = (),
        deletes: "Iterable[tuple[int, int]] | np.ndarray" = (),
    ) -> "EditBatch":
        return cls(inserts=_canonical_edges(inserts),
                   deletes=_canonical_edges(deletes))

    @property
    def empty(self) -> bool:
        return self.inserts.size == 0 and self.deletes.size == 0

    @property
    def num_edits(self) -> int:
        return int(self.inserts.shape[0] + self.deletes.shape[0])

    def normalized_against(self, graph: "CSRGraph | OverlayGraph") -> "EditBatch":
        """The *effective* batch against ``graph``: deletes restricted
        to present edges, inserts to absent ones, delete-then-insert
        overlaps resolved.  Endpoints must be existing vertices (the
        vertex set is fixed; growing it is a ``compact()``-and-rebuild
        operation)."""
        n = graph.num_vertices
        for arr, what in ((self.inserts, "insert"), (self.deletes, "delete")):
            if arr.size and arr.max() >= n:
                raise ValueError(
                    f"{what} endpoint {int(arr.max())} out of range for a "
                    f"{n}-vertex graph")
        ins_present = np.asarray(
            [graph.has_edge(int(u), int(v)) for u, v in self.inserts], dtype=bool
        ) if self.inserts.size else np.zeros(0, dtype=bool)
        del_present = np.asarray(
            [graph.has_edge(int(u), int(v)) for u, v in self.deletes], dtype=bool
        ) if self.deletes.size else np.zeros(0, dtype=bool)
        # delete-then-insert: an edge in both lists survives iff absent
        ins_keys = _edge_keys(self.inserts, n)
        del_keys = _edge_keys(self.deletes, n)
        del_also_inserted = _membership(del_keys, ins_keys)
        eff_deletes = self.deletes[del_present & ~del_also_inserted]
        eff_inserts = self.inserts[~ins_present]
        return EditBatch(inserts=eff_inserts, deletes=eff_deletes)

    def edges_changed(self) -> np.ndarray:
        """All touched canonical edges (inserts ∪ deletes)."""
        if self.inserts.size == 0:
            return self.deletes
        if self.deletes.size == 0:
            return self.inserts
        return np.unique(np.concatenate([self.inserts, self.deletes]), axis=0)


class OverlayGraph:
    """A base CSR plus sorted insert/delete arc deltas, readable like a
    :class:`~repro.graph.csr.CSRGraph`.

    Instances are immutable once built (like the base): "mutation"
    composes a new overlay over the same base
    (:meth:`with_edits`), so every engine cache keyed on the graph
    object stays coherent.  Reads from vertices without deltas are
    zero-copy base slices; merged rows of touched vertices are memoized.
    """

    def __init__(
        self,
        base: "CSRGraph",
        insert_arcs: np.ndarray,
        delete_arcs: np.ndarray,
        *,
        name: str | None = None,
        validate: bool = True,
    ) -> None:
        self.base = base
        self.insert_arcs = np.asarray(insert_arcs, dtype=np.int64).reshape(-1, 2)
        self.delete_arcs = np.asarray(delete_arcs, dtype=np.int64).reshape(-1, 2)
        self.directed = bool(base.directed)
        self.labels = base.labels
        self.name = name if name is not None else f"{base.name}+delta"
        if validate:
            self.validate()
        n = base.num_vertices
        self._ins_keys = _edge_keys(self.insert_arcs, n)
        self._del_keys = _edge_keys(self.delete_arcs, n)
        bounds = np.arange(n + 1, dtype=np.int64)
        self._ins_ptr = np.searchsorted(self.insert_arcs[:, 0], bounds)
        self._del_ptr = np.searchsorted(self.delete_arcs[:, 0], bounds)
        # clip sources so even a corrupt (validate=False) overlay can be
        # constructed and handed to the linter without crashing here
        touched = np.zeros(n, dtype=bool)
        for arcs in (self.insert_arcs, self.delete_arcs):
            if arcs.size:
                src = arcs[:, 0]
                touched[src[(src >= 0) & (src < n)]] = True
        self._touched = touched
        self._row_cache: dict[int, np.ndarray] = {}
        self._degree_cache: np.ndarray | None = None
        self._bitmap_cache: dict[int, dict[int, np.ndarray]] = {}
        self._reversed_cache: "OverlayGraph | None" = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edits(
        cls,
        base: "CSRGraph",
        batch: "EditBatch",
        *,
        name: str | None = None,
    ) -> "OverlayGraph":
        """Overlay ``batch`` (normalized against ``base``) onto ``base``."""
        eff = batch.normalized_against(base)
        n = base.num_vertices
        return cls(
            base,
            _expand_arcs(eff.inserts, base.directed, n),
            _expand_arcs(eff.deletes, base.directed, n),
            name=name,
        )

    def with_edits(self, batch: "EditBatch") -> "OverlayGraph":
        """Compose another batch: a new overlay over the *same* base
        (delta nesting never deepens)."""
        eff = batch.normalized_against(self)
        n = self.num_vertices
        ins_k = self._ins_keys
        del_k = self._del_keys
        d_k = np.sort(_edge_keys(_expand_arcs(eff.deletes, self.directed, n), n))
        i_k = np.sort(_edge_keys(_expand_arcs(eff.inserts, self.directed, n), n))
        # delete: un-insert if the arc came from the overlay, else mark deleted
        from_ins = _membership(d_k, ins_k)
        new_ins = np.setdiff1d(ins_k, d_k[from_ins], assume_unique=True)
        new_del = np.union1d(del_k, d_k[~from_ins])
        # insert: un-delete if the arc is masked, else add to the inserts
        from_del = _membership(i_k, new_del)
        new_del = np.setdiff1d(new_del, i_k[from_del], assume_unique=True)
        new_ins = np.union1d(new_ins, i_k[~from_del])
        return OverlayGraph(
            self.base,
            _arcs_from_keys(new_ins, n),
            _arcs_from_keys(new_del, n),
            name=self.name,
        )

    # -- delta invariants --------------------------------------------------

    def violations(self) -> list[Violation]:
        """Every delta-invariant violation (empty = healthy overlay)."""
        out: list[Violation] = []
        n = self.base.num_vertices
        for arcs, side in ((self.insert_arcs, "inserts"),
                           (self.delete_arcs, "deletes")):
            loc = f"delta.{side}"
            if arcs.ndim != 2 or (arcs.size and arcs.shape[1] != 2):
                out.append(("malformed", loc, "delta must be an (m, 2) arc array"))
                continue
            if arcs.size == 0:
                continue
            if arcs.min() < 0 or arcs.max() >= n:
                out.append(("malformed", loc,
                            f"arc endpoint out of range [0, {n})"))
                continue
            if bool(np.any(arcs[:, 0] == arcs[:, 1])):
                out.append(("malformed", loc, "self-loop arc in delta"))
            keys = _edge_keys(arcs, n)
            if keys.size > 1 and bool(np.any(np.diff(keys) <= 0)):
                out.append((
                    "unsorted", loc,
                    "arcs must be lexicographically sorted and duplicate-free"))
                keys = np.unique(keys)
            if not self.directed:
                rev = np.sort(arcs[:, 1] * np.int64(n) + arcs[:, 0])
                if keys.size != rev.size or bool(np.any(np.unique(keys) != rev)):
                    out.append((
                        "asymmetric", loc,
                        "undirected delta must store both directions of "
                        "every arc"))
        ins_keys = np.unique(_edge_keys(self.insert_arcs, n)) \
            if self.insert_arcs.size else np.empty(0, dtype=np.int64)
        del_keys = np.unique(_edge_keys(self.delete_arcs, n)) \
            if self.delete_arcs.size else np.empty(0, dtype=np.int64)
        overlap = np.intersect1d(ins_keys, del_keys, assume_unique=True)
        if overlap.size:
            u, v = divmod(int(overlap[0]), n)
            out.append((
                "overlap", "delta",
                f"{overlap.size} arc(s) in both inserts and deletes "
                f"(e.g. ({u}, {v})) — normalize delete-then-insert first"))
        ok_range = not any(kind == "malformed" for kind, _, _ in out)
        if ok_range:
            for arcs, side, want in ((self.insert_arcs, "inserts", False),
                                     (self.delete_arcs, "deletes", True)):
                for u, v in arcs:
                    if self.base.has_edge(int(u), int(v)) != want:
                        msg = ("insert already present in the base"
                               if not want else "delete absent from the base")
                        out.append(("phantom", f"delta.{side}",
                                    f"arc ({int(u)}, {int(v)}): {msg}"))
                        break
        return out

    def validate(self) -> None:
        """Raise ``ValueError`` on any delta-invariant violation."""
        bad = self.violations()
        if bad:
            lines = "; ".join(f"[{loc}] {msg}" for _, loc, msg in bad)
            raise ValueError(f"invalid overlay delta: {lines}")

    # -- CSRGraph read API -------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.base.num_vertices

    @property
    def num_edges(self) -> int:
        arcs = self.insert_arcs.shape[0] - self.delete_arcs.shape[0]
        per_edge = 1 if self.directed else 2
        return int(self.base.num_edges + arcs // per_edge)

    @property
    def num_delta_arcs(self) -> int:
        return int(self.insert_arcs.shape[0] + self.delete_arcs.shape[0])

    @property
    def is_labeled(self) -> bool:
        return self.labels is not None

    @property
    def num_labels(self) -> int:
        return self.base.num_labels

    @property
    def indptr(self) -> np.ndarray:
        """The *base* CSR row pointers (resident-memory accounting —
        merged reads go through :meth:`neighbors`)."""
        return self.base.indptr

    @property
    def indices(self) -> np.ndarray:
        """The *base* CSR neighbor ids (see :attr:`indptr`)."""
        return self.base.indices

    def device_graph_bytes(self) -> int:
        """Bytes a device must hold to run on the overlay: the base
        CSR residency plus the delta arc arrays."""
        return int(
            self.base.device_graph_bytes()
            + self.insert_arcs.nbytes
            + self.delete_arcs.nbytes
        )

    def degree(self, v: "int | np.ndarray | None" = None) -> "np.ndarray | int":
        deg = self._degree_cache
        if deg is None:
            base_deg = np.asarray(self.base.degree()).astype(np.int64, copy=True)
            n = self.num_vertices
            if self.insert_arcs.size:
                np.add.at(base_deg, self.insert_arcs[:, 0], 1)
            if self.delete_arcs.size:
                np.subtract.at(base_deg, self.delete_arcs[:, 0], 1)
            deg = base_deg
            self._degree_cache = deg
        if v is None:
            return deg
        return deg[v]

    def neighbors(self, v: int) -> np.ndarray:
        v = int(v)
        if not self._touched[v]:
            return self.base.neighbors(v)
        row = self._row_cache.get(v)
        if row is None:
            row = self.base.neighbors(v)
            dels = self.delete_arcs[self._del_ptr[v]:self._del_ptr[v + 1], 1]
            ins = self.insert_arcs[self._ins_ptr[v]:self._ins_ptr[v + 1], 1]
            if dels.size:
                row = row[np.isin(row, dels.astype(row.dtype), invert=True)]
            if ins.size:
                row = np.union1d(row, ins.astype(np.int32)).astype(np.int32)
            self._row_cache[v] = row
        return row

    def neighbors_batch(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vs = np.asarray(vs, dtype=np.int64)
        touched = self._touched[vs]
        if vs.size == 0 or not bool(touched.any()):
            return self.base.neighbors_batch(vs)
        # one base gather for every row, then the merged rows of the
        # touched ones spliced in (only those cost a Python call)
        base_vals, base_offs = self.base.neighbors_batch(vs)
        lens = base_offs[1:] - base_offs[:-1]
        hit = np.flatnonzero(touched)
        rows = [self.neighbors(v) for v in vs[hit].tolist()]
        out_lens = lens.copy()
        out_lens[hit] = [r.size for r in rows]
        offsets = np.zeros(vs.size + 1, dtype=np.int64)
        np.cumsum(out_lens, out=offsets[1:])
        values = np.empty(int(offsets[-1]), dtype=np.int32)
        merged = touched.repeat(out_lens)
        values[~merged] = base_vals[~touched.repeat(lens)]
        values[merged] = np.concatenate(rows)
        return values, offsets

    def in_neighbors_batch(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.reversed_view().neighbors_batch(vs)

    def reversed_view(self) -> "OverlayGraph":
        if not self.directed:
            return self
        cached = self._reversed_cache
        if cached is None:
            n = self.num_vertices
            rev_ins = _arcs_from_keys(
                np.sort(_edge_keys(self.insert_arcs[:, ::-1], n)), n)
            rev_del = _arcs_from_keys(
                np.sort(_edge_keys(self.delete_arcs[:, ::-1], n)), n)
            cached = OverlayGraph(
                self.base.reversed_view(), rev_ins, rev_del,
                name=f"{self.name}(reversed)", validate=False)
            self._reversed_cache = cached
        return cached

    def in_neighbors(self, v: int) -> np.ndarray:
        return self.reversed_view().neighbors(v)

    def has_edge(self, u: int, v: int) -> bool:
        key = np.int64(int(u)) * self.num_vertices + int(v)
        if bool(_membership(np.asarray([key]), self._del_keys)[0]):
            return False
        if bool(_membership(np.asarray([key]), self._ins_keys)[0]):
            return True
        return self.base.has_edge(int(u), int(v))

    def adjacency_bitmap(self, threshold: int) -> dict[int, np.ndarray]:
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        rows = self._bitmap_cache.get(threshold)
        if rows is None:
            rows = {}
            deg = np.asarray(self.degree())
            for v in np.nonzero(deg >= threshold)[0]:
                row = np.zeros(self.num_vertices, dtype=bool)
                row[self.neighbors(int(v))] = True
                rows[int(v)] = row
            self._bitmap_cache[threshold] = rows
        return rows

    def max_degree(self) -> int:
        deg = np.asarray(self.degree())
        return int(deg.max()) if deg.size else 0

    def median_degree(self) -> float:
        deg = np.asarray(self.degree())
        return float(np.median(deg)) if deg.size else 0.0

    def label_of(self, v: int) -> int:
        if self.labels is None:
            raise ValueError("graph is unlabeled")
        return int(self.labels[v])

    def vertices_with_label(self, label: int) -> np.ndarray:
        if self.labels is None:
            return _EMPTY_I32
        return np.nonzero(self.labels == label)[0].astype(np.int32)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.num_vertices):
            for v in self.neighbors(u):
                v = int(v)
                if self.directed or u < v:
                    yield (u, v)

    # -- materialization ---------------------------------------------------

    def compact(self) -> "CSRGraph":
        """Merge the deltas into a fresh, validated CSR graph."""
        from repro.graph.csr import CSRGraph

        n = self.num_vertices
        rows = [self.neighbors(v) for v in range(n)]
        lens = np.asarray([r.size for r in rows], dtype=np.int64)
        indptr = np.empty(n + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(lens, out=indptr[1:])
        indices = (np.concatenate(rows).astype(np.int32)
                   if int(indptr[-1]) else _EMPTY_I32)
        return CSRGraph(indptr=indptr, indices=indices, labels=self.labels,
                        directed=self.directed, name=self.base.name)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"OverlayGraph(base={self.base.name!r}, n={self.num_vertices}, "
                f"m={self.num_edges}, +{self.insert_arcs.shape[0]} arcs, "
                f"-{self.delete_arcs.shape[0]} arcs)")


def overlaid(graph: "CSRGraph | OverlayGraph", batch: EditBatch,
             ) -> "OverlayGraph":
    """Apply ``batch`` to a base CSR or an existing overlay (composing
    in place of nesting, so delta depth stays one)."""
    if isinstance(graph, OverlayGraph):
        return graph.with_edits(batch)
    return OverlayGraph.from_edits(graph, batch)
