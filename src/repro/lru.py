"""Counting LRU cache shared by every layer that memoizes.

Stdlib only and importing nothing from ``repro``, so any package can
use it without import cycles: the per-graph plan cache
(``repro.core.engine``), the process-wide code cache
(``repro.codegen.compile``), the anchor-plan cache
(``repro.dynamic.incremental``) and the serve result cache
(``repro.serve.cache``) share one eviction policy.  The
hit/miss/eviction counters feed ``repro.obs`` reports (the ``caches``
section), so cache efficacy shows up in every observed run's report.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

__all__ = ["LRUCache"]

_MISS = object()


class LRUCache:
    """Bounded mapping with least-recently-used eviction and counters.

    ``get`` refreshes recency and counts a hit or a miss; ``put``
    inserts (evicting the coldest entry at capacity) without touching
    the hit/miss counters.  Thread-safe: the serve layer's request
    threads share the per-graph plan cache, the process-wide code
    cache and the result cache, so recency updates and evictions are
    serialized under one internal lock (uncontended in the
    single-threaded CLI paths, where it costs one C-level acquire).
    """

    __slots__ = ("name", "maxsize", "hits", "misses", "evictions",
                 "_data", "_lock")

    def __init__(self, maxsize: int, name: str = "lru") -> None:
        if maxsize < 1:
            raise ValueError("LRUCache needs maxsize >= 1")
        self.name = name
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data

    def get(self, key: Any) -> Any:
        """Return the cached value or ``None``, updating recency/stats."""
        with self._lock:
            got = self._data.get(key, _MISS)
            if got is _MISS:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return got

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            data = self._data
            if key in data:
                data.move_to_end(key)
                data[key] = value
                return
            if len(data) >= self.maxsize:
                data.popitem(last=False)
                self.evictions += 1
            data[key] = value

    def discard(self, key: Any) -> bool:
        """Drop one entry if present (explicit invalidation); returns
        whether it was there.  Counters are untouched — an invalidation
        is not an eviction."""
        with self._lock:
            return self._data.pop(key, _MISS) is not _MISS

    def discard_if(self, predicate: Any) -> int:
        """Drop every entry whose *key* satisfies ``predicate`` and
        return how many went (e.g. all results of one graph when its
        version bumps)."""
        with self._lock:
            doomed = [k for k in self._data if predicate(k)]
            for k in doomed:
                del self._data[k]
            return len(doomed)

    def snapshot_if(self, predicate: Any) -> list[tuple[Any, Any]]:
        """``(key, value)`` pairs whose *key* satisfies ``predicate``,
        as a consistent snapshot (no recency or counter side effects —
        this is introspection, not access)."""
        with self._lock:
            return [(k, v) for k, v in self._data.items() if predicate(k)]

    def clear(self) -> None:
        """Drop every entry (counters are kept; see :meth:`reset_stats`)."""
        with self._lock:
            self._data.clear()

    def reset_stats(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        """JSON-ready counter snapshot for ``repro.obs`` reports."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "size": len(self._data),
                "capacity": self.maxsize,
            }
