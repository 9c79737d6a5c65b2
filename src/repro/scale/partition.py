"""1-hop-replicated vertex-range partitioning.

The paper's multi-GPU mode (Fig. 11) duplicates the whole data graph on
every device and splits only the *root* chunks.  This module supplies
the partitioned alternative: shard ``i`` of ``P`` **owns** a contiguous
vertex range ``[lo, hi)`` and holds a compact local replica of

* the CSR rows of its owned vertices, and
* the rows of their 1-hop **boundary** neighborhood (vertices outside
  the range that an owned row points at),

because a traversal rooted inside the range reaches outside it after
one hop.  Deeper hops can leave the replica; those reads fall through
to the base arrays and are *counted* (``fallback_rows``) — on a real
cluster they would be remote fetches, under the memmap backend they are
page faults into the store, and in both cases the replica is the hot
resident working set the device is charged for
(:meth:`PartitionedGraph.device_graph_bytes`).

Correctness does not depend on the replica: a
:class:`PartitionedGraph` answers every adjacency query identically to
its base graph (the replica is a cache, the base is the truth), so the
exactly-once guarantee rests solely on **root ownership** — each shard
enumerates only roots in its owned range, every vertex lies in exactly
one range, hence every match is counted by exactly one shard.  The
happens-before analyzer checks the emitted ``partition_cover`` /
``root_claim`` protocol events against that argument (rule **X512**).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.graph.csr import CSRGraph, gather_rows

if TYPE_CHECKING:
    from repro.analysis.races.events import ProtocolLog

__all__ = ["PartitionedGraph", "VertexPartition"]


@dataclass(frozen=True)
class VertexPartition:
    """A cover of ``0..n-1`` by ``P`` contiguous, disjoint vertex ranges.

    ``bounds`` has length ``P + 1`` with ``bounds[0] == 0`` and
    ``bounds[-1] == n``; shard ``i`` owns ``[bounds[i], bounds[i+1])``.
    Contiguity + full coverage is exactly the exactly-once argument:
    every vertex has one owner, so every match (identified by its root)
    has one counting shard.
    """

    bounds: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bounds) < 2:
            raise ValueError("partition needs at least one range")
        object.__setattr__(self, "bounds", tuple(int(b) for b in self.bounds))

    @classmethod
    def balanced(cls, graph: CSRGraph, num_parts: int) -> "VertexPartition":
        """Edge-balanced contiguous ranges (equal arc mass per shard).

        Cuts the cumulative-degree curve — which is precisely
        ``indptr`` — at ``P`` equidistant arc counts, so each shard's
        owned rows hold roughly ``m / P`` arcs regardless of skew.
        Equal *vertex* counts would hand one shard all the hubs of a
        powerlaw graph.
        """
        if num_parts < 1:
            raise ValueError("num_parts must be >= 1")
        n = graph.num_vertices
        total = int(graph.indptr[-1])
        targets = (np.arange(1, num_parts, dtype=np.int64) * total) // num_parts
        cuts = np.searchsorted(graph.indptr, targets, side="left").astype(np.int64)
        bounds = [0, *cuts.tolist(), n]
        # degenerate ranges (more shards than mass) collapse forward
        for i in range(1, len(bounds)):
            bounds[i] = max(bounds[i], bounds[i - 1])
            bounds[i] = min(bounds[i], n)
        return cls(bounds=tuple(bounds))

    @property
    def num_parts(self) -> int:
        return len(self.bounds) - 1

    def range_of(self, i: int) -> tuple[int, int]:
        return (self.bounds[i], self.bounds[i + 1])

    def owner_of(self, v: int) -> int:
        """Index of the shard owning vertex ``v``."""
        if not 0 <= v < self.bounds[-1]:
            raise ValueError(f"vertex {v} outside partition domain")
        return int(np.searchsorted(self.bounds, v, side="right")) - 1

    def verify(self, n: int) -> None:
        """Raise ``ValueError`` unless the ranges exactly cover ``0..n-1``."""
        b = self.bounds
        if b[0] != 0:
            raise ValueError(f"partition must start at 0, got {b[0]}")
        if b[-1] != n:
            raise ValueError(f"partition must end at n={n}, got {b[-1]}")
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"partition bounds must be nondecreasing: {b}")

    def emit_cover(self, log: "ProtocolLog | None", n: int) -> None:
        """Record this cover on the protocol log (checked by X512)."""
        if log is not None:
            log.emit("partition_cover", bounds=list(self.bounds), n=n)


class PartitionedGraph(CSRGraph):
    """A shard's view of a graph: full truth, 1-hop-replicated residency.

    Subclasses :class:`CSRGraph` with the **base** graph's arrays, so
    every inherited operation (validation already done, candidate
    computation, set operations, overlay composition) is exact by
    construction.  What changes is *residency accounting*: the shard
    additionally builds a compact local sub-CSR over its owned range
    plus 1-hop boundary, serves adjacency from it when possible, counts
    ``fallback_rows`` when a read escapes the replica, and reports the
    replica — not the whole graph — as its device footprint.
    """

    # with_backend must not spill this view to a memmap twin: its base
    # may already be memmapped, and the replica arrays are the point.
    _scale_no_spill = True

    @classmethod
    def replicate(cls, base: CSRGraph, lo: int, hi: int) -> "PartitionedGraph":
        """The shard view owning ``[lo, hi)`` of ``base`` (memoized).

        Shards are cached on the base graph keyed by range, so the
        serial multi-device loop, retries and re-queues share one
        replica per range instead of rebuilding it per attempt.
        """
        if not 0 <= lo <= hi <= base.num_vertices:
            raise ValueError(f"invalid owned range [{lo}, {hi})")
        if isinstance(base, PartitionedGraph):
            raise TypeError("cannot partition an existing PartitionedGraph shard")
        cache = getattr(base, "_partition_cache", None)
        if cache is None:
            cache = {}
            object.__setattr__(base, "_partition_cache", cache)
        got = cache.get((lo, hi))
        if got is not None:
            return got  # type: ignore[no-any-return]

        g = object.__new__(cls)
        object.__setattr__(g, "indptr", base.indptr)
        object.__setattr__(g, "indices", base.indices)
        object.__setattr__(g, "labels", base.labels)
        object.__setattr__(g, "directed", base.directed)
        object.__setattr__(g, "name", f"{base.name}[{lo}:{hi})")
        object.__setattr__(g, "_validated", True)
        object.__setattr__(g, "_base", base)
        object.__setattr__(g, "_owned", (int(lo), int(hi)))

        owned = np.arange(lo, hi, dtype=np.int64)
        owned_vals, _ = base.neighbors_batch(owned) if owned.size else (
            np.empty(0, dtype=np.int32),
            np.zeros(1, dtype=np.int64),
        )
        # stay in int32: the transient unique/concat peak is charged
        # against the shard's host RSS
        nbrs = np.unique(owned_vals)
        boundary = nbrs[(nbrs < lo) | (nbrs >= hi)].astype(np.int64)
        local_vertices = np.concatenate([boundary[boundary < lo], owned, boundary[boundary >= hi]])
        vals, offs = base.neighbors_batch(local_vertices) if local_vertices.size else (
            np.empty(0, dtype=np.int32),
            np.zeros(1, dtype=np.int64),
        )
        local_row = np.full(base.num_vertices, -1, dtype=np.int32)
        local_row[local_vertices] = np.arange(local_vertices.size, dtype=np.int32)
        object.__setattr__(g, "_local_vertices", local_vertices)
        object.__setattr__(g, "_local_row", local_row)
        object.__setattr__(g, "_local_indptr", offs)
        object.__setattr__(g, "_local_indices", np.ascontiguousarray(vals))
        object.__setattr__(g, "_fallback_rows", 0)
        cache[(lo, hi)] = g
        return g

    # -- shard metadata -------------------------------------------------

    @property
    def base(self) -> CSRGraph:
        return self._base  # type: ignore[attr-defined,no-any-return]

    @property
    def owned_range(self) -> tuple[int, int]:
        """The contiguous vertex range this shard owns (and roots from)."""
        return self._owned  # type: ignore[attr-defined,no-any-return]

    @property
    def fallback_rows(self) -> int:
        """CSR rows served from the base instead of the local replica.

        On a real cluster these are remote fetches; under the memmap
        backend they are page faults into the on-disk store.
        """
        return self._fallback_rows  # type: ignore[attr-defined,no-any-return]

    @property
    def local_num_vertices(self) -> int:
        """Rows resident in the replica (owned + 1-hop boundary)."""
        return int(self._local_vertices.size)  # type: ignore[attr-defined]

    @property
    def local_num_arcs(self) -> int:
        return int(self._local_indices.size)  # type: ignore[attr-defined]

    def replication_ratio(self) -> float:
        """Replica arcs over owned arcs (1.0 = no boundary replication)."""
        lo, hi = self.owned_range
        owned_arcs = int(self.indptr[hi] - self.indptr[lo])
        return self.local_num_arcs / max(owned_arcs, 1)

    def emit_claim(
        self,
        log: "ProtocolLog | None",
        key: "tuple[int, int] | None" = None,
    ) -> None:
        """Record this shard's root-ownership claim (checked by X512)."""
        if log is not None:
            lo, hi = self.owned_range
            log.emit("root_claim", key=key, lo=lo, hi=hi, n=self.num_vertices)

    # -- adjacency: replica first, base as truth ------------------------

    def neighbors(self, v: int) -> np.ndarray:
        r = int(self._local_row[v])  # type: ignore[attr-defined]
        if r >= 0:
            ptr = self._local_indptr  # type: ignore[attr-defined]
            return self._local_indices[ptr[r] : ptr[r + 1]]  # type: ignore[attr-defined,no-any-return]
        object.__setattr__(self, "_fallback_rows", self.fallback_rows + 1)
        return super().neighbors(v)

    def neighbors_batch(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        rows = self._local_row[vs]  # type: ignore[attr-defined]
        escaped = int(np.count_nonzero(rows < 0))
        if not escaped:
            return gather_rows(self._local_indptr, self._local_indices, rows)  # type: ignore[attr-defined]
        object.__setattr__(self, "_fallback_rows", self.fallback_rows + escaped)
        return super().neighbors_batch(vs)

    # -- residency accounting -------------------------------------------

    def device_graph_bytes(self) -> int:
        """Bytes of graph data resident on the shard's device.

        The replica (local sub-CSR + the owned rows' labels), not the
        base arrays: the base is the cluster's storage layer, and under
        the memmap backend it costs pages only when faulted.
        """
        total = int(
            self._local_indptr.nbytes  # type: ignore[attr-defined]
            + self._local_indices.nbytes  # type: ignore[attr-defined]
        )
        if self.labels is not None:
            total += 4 * self.local_num_vertices
        return total

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lo, hi = self.owned_range
        return (
            f"PartitionedGraph(base={self.base.name!r}, owned=[{lo}, {hi}), "
            f"replica={self.local_num_vertices}v/{self.local_num_arcs}a, "
            f"ratio={self.replication_ratio():.2f})"
        )
