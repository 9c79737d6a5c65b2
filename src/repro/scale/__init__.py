"""Out-of-core and partitioned execution — graphs bigger than one box.

The paper's multi-device model (Sec. VIII-B, Fig. 11) *duplicates* the
data graph on every GPU, so the reproduction's memory ceiling was one
box's RAM.  This package breaks that ceiling along two independent
axes that compose:

* :mod:`repro.scale.store` / :mod:`repro.scale.ingest` — an
  **out-of-core CSR backend**: the graph's ``indptr``/``indices``/
  ``labels`` arrays live in an on-disk store, built by a chunked
  two-pass ingest that never holds the full edge list in RAM, and are
  memory-mapped (``np.memmap`` behind
  :meth:`~repro.graph.csr.CSRGraph.wrap_validated`) so untouched pages
  never fault in.
* :mod:`repro.scale.backend` — the residency knob:
  ``EngineConfig.graph_backend`` / ``REPRO_GRAPH_BACKEND=memmap``
  transparently re-homes a graph onto a memory-mapped twin at engine
  construction.  Matches *and* simulated cycles are byte-identical to
  the in-memory backend (the arrays are equal; only the OS pager
  changes), which is the same identity contract the process and
  codegen backends honor.
* :mod:`repro.scale.partition` — **1-hop-replicated vertex-range
  partitioning**: shard ``i`` of ``P`` owns a contiguous vertex range
  plus a replicated copy of its boundary neighborhood
  (:class:`~repro.scale.partition.PartitionedGraph`); root-ownership
  filtering guarantees each match is counted by exactly the shard that
  owns its root (analyzer rule **X512** proves no cross-partition
  double count).  Selected with ``EngineConfig.partition_mode="range"``
  and wired through ``run_partitioned`` / ``run_multi_gpu`` /
  ``run_distributed``.

See ``docs/ARCHITECTURE.md`` §10 for the lifecycle and the
ownership-filter proof sketch; ``benchmarks/perf``'s ``shard_fanout``
workload measures partition build, replication and fan-out time.
"""

from .backend import (
    GRAPH_BACKENDS,
    graph_backend_of,
    resolve_graph_backend,
    with_backend,
)
from .ingest import ingest_edge_chunks, ingest_edgelist_file
from .partition import PartitionedGraph, VertexPartition
from .store import load_csr_store, save_csr_store

__all__ = [
    "GRAPH_BACKENDS",
    "PartitionedGraph",
    "VertexPartition",
    "graph_backend_of",
    "ingest_edge_chunks",
    "ingest_edgelist_file",
    "load_csr_store",
    "resolve_graph_backend",
    "save_csr_store",
    "with_backend",
]
