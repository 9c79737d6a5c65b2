"""Real parallel execution backend (process pool + shared-memory graph).

The paper's multi-GPU strategy (Sec. VIII-B, Fig. 11) duplicates the
graph and splits the outermost loop's root range across devices; the
shards are independent and deterministic, so this package maps them
onto real CPU cores for genuine wall-clock scaling while staying
**result-identical to serial** execution.

* :mod:`repro.parallel.sharedgraph` — one-time export of the
  ``CSRGraph`` arrays into :mod:`multiprocessing.shared_memory`;
  workers attach zero-copy and cache per graph.
* :mod:`repro.parallel.executor` — shard specs, the persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` registry, the serial
  fast fallback and crash containment.

Selected via ``EngineConfig(executor="process", num_workers=N)`` only; see
``docs/PERFORMANCE.md`` for the scaling study and when process overhead
loses.
"""

from .executor import (
    POOL_REGISTRY_MAX,
    ShardSpec,
    default_num_workers,
    is_pool_infra_failure,
    pool_stats,
    resolve_execution,
    run_shards,
    shutdown_pools,
)
from .sharedgraph import (
    SharedGraphHandle,
    attach_graph,
    export_graph,
    release_exports,
)

__all__ = [
    "POOL_REGISTRY_MAX",
    "ShardSpec",
    "SharedGraphHandle",
    "attach_graph",
    "default_num_workers",
    "export_graph",
    "is_pool_infra_failure",
    "pool_stats",
    "release_exports",
    "resolve_execution",
    "run_shards",
    "shutdown_pools",
]
