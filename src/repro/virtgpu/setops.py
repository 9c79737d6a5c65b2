"""Warp-parallel set operations (Secs. IV and VI).

Two implementations of the same semantics:

* :func:`combined_set_op` — the production path used by the engines:
  NumPy-vectorized, one call handles the M batched operations of an
  unrolled iteration (Fig. 8) and charges the owning warp
  ``ceil(total_elements / 32)`` rounds, which is exactly the thread-
  utilization advantage unrolling buys.
* :func:`combined_set_op_lockstep` — a lane-by-lane reference built on
  the SIMT primitives (``ballot``/``popc``/prefix sums), following the
  Fig. 8 data flow literally.  Property tests pin the production path
  to it.

Both intersect (``difference=False``) or subtract (``difference=True``)
each input set against its own sorted operand.  All arrays are sorted
unique int vertex ids, so results are sorted unique as well.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .costmodel import WARP_SIZE
from .primitives import ballot_sync, compact_offsets, lane_binary_search, popc, warp_exclusive_scan
from .warp import Warp

__all__ = [
    "combined_set_op",
    "combined_set_op_lockstep",
    "single_set_op",
]


def single_set_op(
    warp: Warp | None,
    input_set: np.ndarray,
    operand: np.ndarray,
    difference: bool = False,
    in_global: bool = True,
) -> np.ndarray:
    """One set op on one warp (the non-unrolled Fig. 3 path)."""
    res = combined_set_op(warp, [input_set], [operand], [difference], in_global=in_global)
    return res[0]


def combined_set_op(
    warp: Warp | None,
    input_sets: Sequence[np.ndarray],
    operands: Sequence[np.ndarray],
    difference: Sequence[bool],
    in_global: bool = True,
) -> list[np.ndarray]:
    """Perform M set operations as one warp-combined operation.

    Parameters
    ----------
    warp:
        The executing warp, charged for the combined cost; ``None`` runs
        cost-free (used by plain functional callers).
    input_sets / operands / difference:
        Per-slot inputs: ``result[i] = input_sets[i] ∩ operands[i]`` or
        ``input_sets[i] − operands[i]``.
    in_global:
        Whether the candidate arrays live in global memory (STMatch's
        ``C``) — affects only the cost charge.
    """
    m = len(input_sets)
    if not (len(operands) == len(difference) == m):
        raise ValueError("input_sets, operands and difference must align")
    results: list[np.ndarray] = []
    total = 0
    max_operand = 1
    for i in range(m):
        a = np.asarray(input_sets[i])
        b = np.asarray(operands[i])
        total += a.size
        max_operand = max(max_operand, b.size)
        if a.size == 0:
            results.append(a.copy())
            continue
        if b.size == 0:
            results.append(a.copy() if difference[i] else a[:0].copy())
            continue
        found = lane_binary_search(a, b)
        keep = ~found if difference[i] else found
        results.append(a[keep])
    if warp is not None and m:
        warp.charge_set_op(total, max_operand, in_global=in_global)
        if warp.tracer is not None:
            warp.tracer.on_combined_set_op(warp, m, total, max_operand)
    return results


def combined_set_op_lockstep(
    warp: Warp | None,
    input_sets: Sequence[np.ndarray],
    operands: Sequence[np.ndarray],
    difference: Sequence[bool],
    in_global: bool = True,
) -> list[np.ndarray]:
    """Reference implementation following Fig. 8 step by step.

    Elements of all M input sets are flattened (via the size prefix sum
    ``size_scan``), processed in warp rounds of 32 lanes, searched in
    their per-set operand, ballot-compacted, and written to per-set
    output arrays at ``popc``-derived offsets.
    """
    m = len(input_sets)
    if not (len(operands) == len(difference) == m):
        raise ValueError("input_sets, operands and difference must align")
    sizes = np.asarray([np.asarray(s).size for s in input_sets], dtype=np.int64)
    size_scan = warp_exclusive_scan(sizes) if m <= WARP_SIZE else np.concatenate(
        [[0], np.cumsum(sizes)[:-1]]
    )
    total = int(sizes.sum())
    # flatten: element e belongs to set set_idx[e] at offset set_ofs[e]
    flat = np.concatenate([np.asarray(s) for s in input_sets]) if total else np.empty(0, dtype=np.int64)
    set_idx = np.repeat(np.arange(m), sizes)
    set_ofs = np.arange(total) - size_scan[set_idx] if total else np.empty(0, dtype=np.int64)
    outputs = [np.full(int(sizes[i]), -1, dtype=np.asarray(input_sets[i]).dtype if sizes[i] else np.int64)
               for i in range(m)]
    out_counts = np.zeros(m, dtype=np.int64)
    max_operand = max((np.asarray(b).size for b in operands), default=1)

    for start in range(0, total, WARP_SIZE):
        lanes = slice(start, min(start + WARP_SIZE, total))
        vals = flat[lanes]
        sidx = set_idx[lanes]
        bres = np.zeros(vals.size, dtype=bool)
        # each lane searches its own set's operand; hardware does this in
        # lockstep, here we group lanes by set for the vector search
        for s in np.unique(sidx):
            sel = sidx == s
            found = lane_binary_search(vals[sel], np.asarray(operands[s]))
            bres[sel] = ~found if difference[s] else found
        ballot = ballot_sync(bres)
        assert popc(ballot) == int(bres.sum())
        offs = compact_offsets(bres, sidx)
        for lane in range(vals.size):
            if bres[lane]:
                s = int(sidx[lane])
                pos = int(out_counts[s]) + int(offs[lane])
                outputs[s][pos] = vals[lane]
        for s in np.unique(sidx):
            out_counts[s] += int(bres[sidx == s].sum())
    if warp is not None and m:
        warp.charge_set_op(total, max(max_operand, 1), in_global=in_global)
        if warp.tracer is not None:
            warp.tracer.on_combined_set_op(warp, m, total, int(max_operand))
    return [outputs[i][: int(out_counts[i])] for i in range(m)]
