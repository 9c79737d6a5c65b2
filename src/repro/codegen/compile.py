"""Compile emitted kernel source and cache it process-wide.

The code cache is keyed by :func:`repro.codegen.emit.codegen_key` —
graph-independent, exactly like the per-graph plan cache — so every
engine over any data graph reuses one compiled module per
(query, schedule) pair, and process-pool
workers rebuild identical kernels from the pickled ``(plan, config)``
without code objects ever crossing the pipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from repro.lru import LRUCache

from .emit import codegen_key, emit_kernel_source

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import EngineConfig
    from repro.pattern.plan import MatchingPlan

__all__ = [
    "CompiledKernel",
    "clear_code_cache",
    "code_cache_stats",
    "compile_kernel",
    "compiled_kernel",
]

#: process-wide compiled-kernel LRU; 256 plans is far beyond any
#: realistic working set (the q1-q13 corpus x config variants is < 60)
CODE_CACHE_MAX = 256

_CODE_CACHE = LRUCache(CODE_CACHE_MAX, name="codegen")


@dataclass(frozen=True)
class CompiledKernel:
    """One exec'd kernel module: its key, source, and level entry points."""

    key: tuple[Any, ...]
    source: str
    levels: dict[int, Callable[..., Any]] = field(compare=False, repr=False)


def compile_kernel(plan: MatchingPlan, config: EngineConfig) -> CompiledKernel:
    """Emit + ``exec`` the specialized kernel for ``plan`` (no cache)."""
    source = emit_kernel_source(plan, config)
    code = compile(source, "<repro.codegen>", "exec")
    ns: dict[str, Any] = {}
    exec(code, ns)  # executing our own emitted source
    return CompiledKernel(
        key=codegen_key(plan, config),
        source=source,
        levels=ns["LEVELS"],
    )


def compiled_kernel(plan: MatchingPlan, config: EngineConfig) -> CompiledKernel:
    """Cache-through lookup: compile on miss, LRU-reuse on hit."""
    key = codegen_key(plan, config)
    kernel = _CODE_CACHE.get(key)
    if kernel is None:
        kernel = compile_kernel(plan, config)
        _CODE_CACHE.put(key, kernel)
    return kernel


def code_cache_stats() -> dict[str, int]:
    """Counter snapshot of the process-wide code cache (for obs reports)."""
    return _CODE_CACHE.stats()


def clear_code_cache(reset_stats: bool = False) -> None:
    """Drop all compiled kernels (tests / memory pressure)."""
    _CODE_CACHE.clear()
    if reset_stats:
        _CODE_CACHE.reset_stats()
