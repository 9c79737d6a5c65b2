"""Exact match counts without the simulator: a level-synchronous frontier.

:func:`frontier_count` returns the match count of a
:class:`~repro.pattern.plan.MatchingPlan` with no device, warp,
scheduler or charge.  It walks levels ``1 .. k-1`` over a frontier of
partial-embedding rows (``rows[i, j]`` = the data vertex matched at
position ``j``) and extends every row of a chunk at once:

* the base is one ``neighbors_batch`` over the back-neighbor column
  with the smallest total degree;
* every other back-neighbor is one keyed intersection
  (``member_sorted(keys, vals + segs * n)``) and, for vertex-induced
  plans, every non-neighbor one keyed difference;
* one fused mask applies injectivity against every prefix column, the
  symmetry floor, the level label and the pin.

A pinned column holds one vertex in every row, so its list is read
once and shared by all rows instead of gathered per row.  The last
level is only counted, never materialised.  Parent rows are cut into
chunks that gather at most :data:`CHUNK_ELEMS` elements (a single
wider row goes alone), and each chunk's children are counted to the
bottom before the next chunk is extended, so live memory stays
O(depth × budget) whatever the frontier's total size.

The cycle-accounted path is ``STMatchEngine.run``; this one serves
callers that need only the exact count (``repro.dynamic.count_delta``'s
anchored runs, and ``MatchService``'s exact requests through
``count_only`` shards in ``repro.parallel.executor``).  Graph reads go through the graph-read API only
(``neighbors``, ``neighbors_batch``, ``degree``, ``labels``), so
overlays and memmap twins serve their own rows.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Protocol

import numpy as np

from .membership import member_sorted

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pattern.plan import MatchingPlan

__all__ = ["CHUNK_ELEMS", "frontier_count"]

#: most neighbor-list elements one chunk of parent rows gathers across
#: all of a level's operand columns.  It bounds live memory; on
#: ``serve_edits`` 16 384 measured +1.1 MiB peak RSS, 1 024 +0.25 MiB
#: and 512 +0.1 MiB for most of 1 024's speed (docs/PERFORMANCE.md).
CHUNK_ELEMS = 512


class GraphReader(Protocol):
    """The graph-read API the frontier uses (CSR, overlay, memmap twin)."""

    @property
    def num_vertices(self) -> int: ...

    @property
    def labels(self) -> np.ndarray | None: ...

    @property
    def directed(self) -> bool: ...

    def degree(self) -> np.ndarray | int: ...

    def neighbors(self, v: int) -> np.ndarray: ...

    def neighbors_batch(self, vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]: ...


class _Level(NamedTuple):
    """What extending the frontier by one level needs."""

    back: tuple[int, ...]  #: unpinned prefix positions adjacent in the query
    apart: tuple[int, ...]  #: vertex-induced: unpinned positions not adjacent
    #: (pinned position's neighbor list, is a difference), shared by all rows
    shared: tuple[tuple[np.ndarray, bool], ...]
    #: every back-neighbor pinned: the level's candidates, the same for
    #: every row (``shared`` already applied)
    base: np.ndarray | None
    floor: tuple[int, ...]  #: prefix positions the candidate must exceed
    label: int | None
    pin: int | None


def frontier_count(graph: GraphReader, plan: MatchingPlan,
                   pins: dict[int, int] | None = None) -> int:
    """Exact number of matches of ``plan`` in ``graph``.

    ``pins`` maps matching-order positions to the data vertex they must
    match (an anchored run).  Directed plans and graphs raise
    ``NotImplementedError``; a labeled plan on an unlabeled graph
    raises ``ValueError``.
    """
    q = plan.query
    if q.directed or graph.directed:
        raise NotImplementedError("frontier counts support undirected plans only")
    labels = graph.labels
    if q.labels is not None and labels is None:
        raise ValueError("labeled plan on unlabeled data graph")
    pins = pins or {}
    n = graph.num_vertices
    if not all(0 <= v < n for v in pins.values()):
        return 0
    roots = (np.arange(n, dtype=np.int32) if 0 not in pins
             else np.asarray([pins[0]], dtype=np.int32))
    if q.labels is not None:
        assert labels is not None
        roots = roots[labels[roots] == q.labels[0]]
    if q.size == 1:
        return int(roots.size)
    levels = [_level(graph, plan, lv, pins) for lv in range(1, q.size)]
    return _count(graph, levels, np.asarray(graph.degree()), roots[:, None])


def _level(graph: GraphReader, plan: MatchingPlan, lv: int, pins: dict[int, int]) -> _Level:
    """Level ``lv``'s operands, with the pinned columns' lists read."""
    q = plan.query
    adj = q.adj[lv, :lv].tolist()
    assert any(adj), "matching orders are connected"
    ops = [j for j in range(lv) if adj[j] or plan.vertex_induced]
    shared = [(graph.neighbors(pins[j]), not adj[j]) for j in ops if j in pins]
    back = tuple(j for j in ops if adj[j] and j not in pins)
    base: np.ndarray | None = None
    if not back:
        base = shared.pop(next(k for k, (_, diff) in enumerate(shared) if not diff))[0]
        for row, diff in shared:
            base = base[_member(row, base, diff)]
        shared = []
    return _Level(back, tuple(j for j in ops if not adj[j] and j not in pins),
                  tuple(shared), base, tuple(plan.restrictions[lv]),
                  None if q.labels is None else int(q.labels[lv]), pins.get(lv))


def _member(hay: np.ndarray, needles: np.ndarray, difference: bool) -> np.ndarray:
    found = member_sorted(hay, needles)
    if difference:
        np.logical_not(found, out=found)
    return found


def _count(graph: GraphReader, levels: list[_Level], deg: np.ndarray,
           rows: np.ndarray) -> int:
    """Matches completing the partial embeddings ``rows``: extend one
    budgeted chunk of them by a level, then count the last level or
    recurse into the chunk's children."""
    lv = levels[rows.shape[1] - 1]
    last = rows.shape[1] == len(levels)
    base, ends = _chunking(lv, deg, rows)
    total, lo, done = 0, 0, 0
    while lo < rows.shape[0]:
        hi = max(int(ends.searchsorted(done + CHUNK_ELEMS, "right")), lo + 1)
        chunk = rows[lo:hi]
        vals, segs, keep = _candidates(graph, chunk, lv, base)
        done, lo = int(ends[hi - 1]), hi
        if last:
            total += int(np.count_nonzero(keep))
            continue
        children = np.concatenate((chunk[segs[keep]], vals[keep, None]), axis=1)
        # only the children stay live below this depth
        del vals, segs, keep
        if children.size:
            total += _count(graph, levels, deg, children)
    return total


def _chunking(lv: _Level, deg: np.ndarray, rows: np.ndarray) -> tuple[int | None, np.ndarray]:
    """The base column (the unpinned back-neighbor with the smallest
    total degree; ``None`` for a shared base) and the running count of
    elements the rows gather."""
    cost = deg[rows[:, lv.back + lv.apart]]  # (rows, gathered columns) list lengths
    if lv.base is not None:
        return None, (cost.sum(axis=1) + lv.base.size).cumsum()
    base = lv.back[int(cost[:, :len(lv.back)].sum(axis=0).argmin())]
    return base, cost.sum(axis=1).cumsum()


def _candidates(graph: GraphReader, rows: np.ndarray, lv: _Level,
                base: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One level's candidates for a chunk of ``rows``: ``(vals, segs,
    keep)``, where ``vals[keep]`` extend the rows ``segs[keep]``."""
    n = graph.num_vertices
    nrows = rows.shape[0]
    if base is None:
        assert lv.base is not None
        vals = np.tile(lv.base, nrows)
        segs = np.arange(nrows).repeat(lv.base.size)
    else:
        vals, offs = graph.neighbors_batch(rows[:, base])
        segs = np.arange(nrows).repeat(offs[1:] - offs[:-1])
    for row, diff in lv.shared:
        found = _member(row, vals, diff)
        vals, segs = vals[found], segs[found]
    for col, diff in [(c, False) for c in lv.back if c != base] + [(c, True) for c in lv.apart]:
        if not vals.size:
            break
        ovals, ooffs = graph.neighbors_batch(rows[:, col])
        keys = ovals + np.arange(nrows).repeat(ooffs[1:] - ooffs[:-1]) * n
        found = _member(keys, vals + segs * n, diff)
        vals, segs = vals[found], segs[found]
    keep = (rows[segs] != vals[:, None]).all(axis=1)
    if lv.floor:
        keep &= vals > rows[:, lv.floor].max(axis=1)[segs]
    if lv.label is not None:
        labels = graph.labels
        assert labels is not None
        keep &= labels[vals] == lv.label
    if lv.pin is not None:
        keep &= vals == lv.pin
    return vals, segs, keep
