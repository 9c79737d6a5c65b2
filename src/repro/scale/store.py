"""On-disk CSR store: one directory per graph, memory-mappable arrays.

The store is deliberately primitive — plain ``.npy`` files plus a tiny
JSON sidecar — because ``np.load(..., mmap_mode="r")`` then gives the
CSR arrays back as :class:`numpy.memmap` views for free: loading a
multi-GB graph costs a few metadata pages, and a kernel that only
explores part of the graph only ever faults in the CSR rows it touches.

Layout of a store directory::

    meta.json      {"format": 1, "name", "directed", "num_vertices",
                    "num_arcs", "labeled"}
    indptr.npy     int64, length n + 1
    indices.npy    int32, length num_arcs (sorted, duplicate-free rows)
    labels.npy     int32, length n (only when labeled)

The arrays must already satisfy the :class:`~repro.graph.csr.CSRGraph`
invariants: :func:`save_csr_store` copies them from a validated graph
and :func:`repro.scale.ingest.ingest_edge_chunks` constructs them to be
byte-identical to :meth:`CSRGraph.from_edges`, so :func:`load_csr_store`
may wrap them with :meth:`CSRGraph.wrap_validated` — re-validating
would defeat laziness by touching every page.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["STORE_FORMAT", "is_csr_store", "load_csr_store", "save_csr_store"]

#: on-disk format version (bump on any layout change)
STORE_FORMAT = 1

_META = "meta.json"
_INDPTR = "indptr.npy"
_INDICES = "indices.npy"
_LABELS = "labels.npy"


def save_csr_store(graph: CSRGraph, directory: str | os.PathLike[str]) -> Path:
    """Write ``graph`` into an on-disk CSR store; returns the directory.

    The writes stream through :func:`numpy.save` (no compression, no
    pickling), so a later :func:`load_csr_store` can map the files
    directly.  Existing store files in the directory are overwritten.
    """
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    np.save(d / _INDPTR, np.ascontiguousarray(graph.indptr, dtype=np.int64))
    np.save(d / _INDICES, np.ascontiguousarray(graph.indices, dtype=np.int32))
    if graph.labels is not None:
        np.save(d / _LABELS, np.ascontiguousarray(graph.labels, dtype=np.int32))
    elif (d / _LABELS).exists():
        (d / _LABELS).unlink()
    meta = {
        "format": STORE_FORMAT,
        "name": graph.name,
        "directed": bool(graph.directed),
        "num_vertices": int(graph.num_vertices),
        "num_arcs": int(graph.indices.size),
        "labeled": graph.labels is not None,
    }
    (d / _META).write_text(json.dumps(meta, indent=2), encoding="utf-8")
    return d


def is_csr_store(directory: str | os.PathLike[str]) -> bool:
    """Whether ``directory`` looks like a CSR store."""
    d = Path(directory)
    return (d / _META).is_file() and (d / _INDPTR).is_file() and (d / _INDICES).is_file()


def load_csr_store(
    directory: str | os.PathLike[str],
    mmap: bool = True,
) -> CSRGraph:
    """Open an on-disk CSR store.

    With ``mmap=True`` (the default, and the point) the arrays come
    back as read-only :class:`numpy.memmap` views — the multi-GB case
    loads lazily and untouched pages never fault in.  ``mmap=False``
    materializes the arrays in RAM (the heap baseline
    ``tests/test_scale_backend.py`` compares the mapped run against).
    """
    d = Path(directory)
    if not is_csr_store(d):
        raise FileNotFoundError(f"{d} is not a CSR store (missing meta/arrays)")
    meta = json.loads((d / _META).read_text(encoding="utf-8"))
    if meta.get("format") != STORE_FORMAT:
        raise ValueError(
            f"CSR store {d} has format {meta.get('format')!r}; "
            f"this build reads format {STORE_FORMAT}"
        )
    mode = "r" if mmap else None
    indptr = np.load(d / _INDPTR, mmap_mode=mode)
    indices = np.load(d / _INDICES, mmap_mode=mode)
    labels = None
    if meta.get("labeled"):
        labels = np.load(d / _LABELS, mmap_mode=mode)
    if indptr.dtype != np.int64 or indices.dtype != np.int32:
        raise ValueError(f"CSR store {d} carries wrong dtypes")
    if indptr.size != meta["num_vertices"] + 1 or indices.size != meta["num_arcs"]:
        raise ValueError(f"CSR store {d} arrays disagree with meta.json")
    g = CSRGraph.wrap_validated(
        indptr,
        indices,
        labels=labels,
        directed=bool(meta["directed"]),
        name=str(meta["name"]),
    )
    object.__setattr__(g, "_store_dir", str(d))
    return g
