"""Sorted membership: the one search every fast-tier set op reduces to.

``member_sorted`` tests ``needles`` against a sorted unique ``hay``
array (plain for shared operands, over ``segment * stride + value``
keys for per-slot operands).  When :mod:`numba` is importable the
binary search runs as an ``njit``-compiled loop; otherwise the
pure-NumPy ``searchsorted`` fallback is used.  Both produce identical
boolean masks — numba changes host wall-clock only, never results.
"""

from __future__ import annotations

import numpy as np

try:  # optional dependency: never installed by this package
    import numba as _numba
except Exception:  # pragma: no cover - exercised only without numba
    _numba = None

HAVE_NUMBA = _numba is not None

__all__ = ["HAVE_NUMBA", "member_sorted"]


def _member_sorted_np(hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
    """``out[i] = needles[i] in hay`` for sorted unique ``hay``."""
    if hay.size == 0 or needles.size == 0:
        return np.zeros(needles.shape, dtype=bool)
    # ndarray methods skip the np.* dispatch wrappers — this primitive
    # runs millions of times on tiny arrays.  A needle past the end
    # clips onto hay[-1], which is smaller, so it reads as absent.
    found: np.ndarray = hay.take(hay.searchsorted(needles), mode="clip") == needles
    return found


if HAVE_NUMBA:  # pragma: no cover - numba is absent in the default env

    @_numba.njit(cache=False)
    def _member_sorted_loop(hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
        out = np.zeros(needles.size, dtype=np.bool_)
        hi = hay.size
        for i in range(needles.size):
            x = needles[i]
            lo = 0
            top = hi
            while lo < top:
                mid = (lo + top) >> 1
                if hay[mid] < x:
                    lo = mid + 1
                else:
                    top = mid
            out[i] = lo < hi and hay[lo] == x
        return out

    def _member_sorted_nb(hay: np.ndarray, needles: np.ndarray) -> np.ndarray:
        if hay.size == 0 or needles.size == 0:
            return np.zeros(needles.shape, dtype=bool)
        result: np.ndarray = _member_sorted_loop(hay, needles)
        return result

    member_sorted = _member_sorted_nb
else:
    member_sorted = _member_sorted_np
