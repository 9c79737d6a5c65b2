"""Graph residency: in-memory arrays vs on-disk memory maps.

Where the CSR arrays live is a property of the graph object, not of the
engine that runs on it: a graph loaded with
``load_csr_store(..., mmap=True)`` is memory-mapped before any engine,
service or shard sees it, and every consumer reads it in place.

:func:`memmap_twin` turns a plain in-memory
:class:`~repro.graph.csr.CSRGraph` into such a graph: the arrays are
written once into a private on-disk store and reopened with
``mmap_mode="r"``.  The twin's arrays are *equal* to the originals, so
matches and simulated cycles are byte-identical by construction; only
the OS pager changes.
"""

from __future__ import annotations

import shutil
import tempfile
import weakref

import numpy as np

from repro.graph.csr import CSRGraph

from .store import load_csr_store, save_csr_store

__all__ = ["memmap_twin"]


def is_memmap_backed(graph: CSRGraph) -> bool:
    """Whether the graph's CSR arrays are OS memory maps."""
    return isinstance(graph.indices, np.memmap) or isinstance(graph.indptr, np.memmap)


def memmap_twin(graph: CSRGraph) -> CSRGraph:
    """The memory-mapped twin of a plain in-memory ``graph``.

    Spills ``graph`` to a private temp store and returns the store
    reopened with ``mmap=True``; the store is removed once the twin is
    unreachable.  An already-mapped graph is returned unchanged.  Views
    (a partition shard, a delta overlay) raise ``TypeError``: spilling
    one would materialize it, dropping the replica or the pending edits
    that make it a view — map its base instead.
    """
    if type(graph) is not CSRGraph:
        raise TypeError(
            f"memmap_twin needs a plain CSRGraph, not a {type(graph).__name__} view; "
            "map its base graph instead"
        )
    if is_memmap_backed(graph):
        return graph
    tmp = tempfile.mkdtemp(prefix="repro-memmap-")
    save_csr_store(graph, tmp)
    twin = load_csr_store(tmp, mmap=True)
    # The twin's arrays hold the mapping open; reclaim the temp store
    # only once the twin itself is unreachable.
    weakref.finalize(twin, shutil.rmtree, tmp, True)
    return twin
