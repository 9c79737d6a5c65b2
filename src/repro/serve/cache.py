"""Versioned result cache: ``(graph, version, query, config)`` → count.

Counts are pure functions of ``(graph snapshot, plan, config)``, so a
service that answers the same query twice should pay the kernel once.
What makes the memo *safe* is the version in the key: the cache never
stores a count without naming the exact graph version it was computed
on, and replacing a graph explicitly invalidates every entry of the
old version (:meth:`ResultCache.invalidate_graph`), so a stale count
is structurally impossible to serve — pinned by the property test over
randomized request interleavings in ``tests/test_serve_cache.py``.

Only *exact* counts are cached: a budget-truncated or degraded answer
depends on the budget that cut it, and callers asking for the full
count must never receive one.  Built on the shared counting
:class:`~repro.lru.LRUCache` (thread-safe), so hit/miss/
eviction telemetry lands in service stats like every other cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.lru import LRUCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig
    from repro.pattern.query import QueryGraph

__all__ = ["RESULT_CACHE_MAX", "ResultCache"]

#: default result-cache capacity (distinct (graph, version, query,
#: config) combinations — generous for the bench corpora)
RESULT_CACHE_MAX = 4096


def _config_key(config: "EngineConfig") -> tuple[Any, ...]:
    """The config fields a *count* depends on.

    Executor, worker counts, observability and codegen are
    identity-preserving by contract (counts are byte-identical across
    backends), so they are deliberately NOT in the key — a count
    computed on the pool serves an interpreted request and vice versa.
    """
    return (
        config.max_results,
        config.degree_filter,
        config.max_degree,
    )


class ResultCache:
    """Memoized exact counts, keyed by graph version."""

    def __init__(self, maxsize: int = RESULT_CACHE_MAX) -> None:
        self._cache = LRUCache(maxsize, name="results")

    @staticmethod
    def key(
        graph_name: str,
        graph_version: int,
        query: "QueryGraph",
        vertex_induced: bool,
        config: "EngineConfig",
    ) -> tuple[Any, ...]:
        return (graph_name, graph_version, query, vertex_induced,
                _config_key(config))

    def get(self, key: tuple[Any, ...]) -> int | None:
        """The cached exact count, or ``None`` (counts a hit/miss)."""
        got = self._cache.get(key)
        return None if got is None else int(got)

    def put(self, key: tuple[Any, ...], matches: int) -> None:
        self._cache.put(key, int(matches))

    def invalidate_graph(self, graph_name: str, version: int | None = None) -> int:
        """Drop entries for ``graph_name``; returns how many went.

        With ``version=None`` every version goes (wholesale graph
        replacement).  With a version, only that version's entries are
        dropped — the batch-dynamic path uses this to retire exactly
        the superseded version while counts patched forward to the new
        version (and any still-valid other versions) survive.  Called
        under the graph host's update lock so a concurrent request can
        never re-populate a purged version between the bump and the
        purge.
        """
        if version is None:
            return self._cache.discard_if(lambda k: k[0] == graph_name)
        return self._cache.discard_if(
            lambda k: k[0] == graph_name and k[1] == version)

    def entries(self, graph_name: str, version: int) -> list[tuple[tuple[Any, ...], int]]:
        """Snapshot of ``(key, count)`` pairs for one graph version
        (the patchable set inspected by ``MatchService.apply_edits``)."""
        return [
            (k, int(v)) for k, v in self._cache.snapshot_if(
                lambda k: k[0] == graph_name and k[1] == version)
        ]

    def clear(self) -> None:
        self._cache.clear()

    def stats(self) -> dict[str, int]:
        return self._cache.stats()

    def __len__(self) -> int:
        return len(self._cache)
