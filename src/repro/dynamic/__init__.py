"""Batch-dynamic matching: delta-overlay graphs and incremental counts.

The static engine answers one-shot counts over an immutable
:class:`~repro.graph.csr.CSRGraph`.  This package makes the graph
*mutable in batches* without giving up the stack kernel:

* :class:`~repro.dynamic.overlay.OverlayGraph` — a base CSR plus
  sorted insert/delete delta arrays, exposing the same read API so the
  candidate computer and fast path run on it unmodified;
  ``compact()`` merges the deltas into a fresh CSR.
* :func:`~repro.dynamic.incremental.count_delta` /
  :class:`~repro.dynamic.incremental.IncrementalMatcher` — exact count
  maintenance by pinned exact counts (:mod:`repro.core.frontier`)
  anchored at each changed edge (delta anchoring, arXiv 2401.17018)
  instead of recounting.
* :class:`~repro.dynamic.overlay.EditBatch` — the canonical edit
  carrier with delete-then-insert semantics.

Delta invariants are linted by :func:`repro.analysis.overlay.lint_overlay`
(rules D601–D605); the serve layer applies batches through
``MatchService.apply_edits``.
"""

from .incremental import CountDelta, IncrementalMatcher, count_delta
from .overlay import EditBatch, OverlayGraph, overlaid

__all__ = [
    "CountDelta",
    "EditBatch",
    "IncrementalMatcher",
    "OverlayGraph",
    "count_delta",
    "overlaid",
]
